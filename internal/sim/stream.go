package sim

import (
	"context"
	"fmt"
	"iter"
	"math/bits"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// Step is one round of a streaming run, yielded by Engine.Stream (and by the
// public dynmon Steps iterator built over it).  The struct is reused across
// rounds and Config returns a live engine-owned buffer, so a Step and its
// configuration are valid only until the next iteration of the stream;
// consumers that need a durable snapshot call Checkpoint (or Clone the
// configuration themselves).
type Step struct {
	// Round is the 1-based round this step completed.
	Round int
	// Changed is the number of vertices that changed color this round.
	Changed int
	// Done reports that the run stopped on its own this round (fixed point,
	// cycle, monochromatic configuration or round budget): this is the final
	// step of the stream and Result carries the completed result.
	Done bool
	// Result is the completed Result on the Done step, and the partial
	// result on the step that accompanies a context-cancellation error.  It
	// is nil on every other step.
	Result *Result

	drv runDriver
	res *Result
}

// Config returns the configuration at the end of this step's round.  It is a
// live buffer owned by the engine — valid until the next step, and it must
// not be mutated.  On bitplane-tier streams the scalar view is unpacked
// lazily, so steps whose consumers never look at the configuration stay on
// the word-parallel fast path.
func (s *Step) Config() *color.Coloring { return s.drv.config() }

// Checkpoint snapshots the resumable state of the run after this step: the
// configuration, the round counter, the previous round's configuration (the
// stop-detector state behind period-2 cycle detection) and the accumulated
// per-run trace.  The snapshot is deep — it shares no memory with the engine
// — and feeding it to Engine.ResumeContext with the same Options continues
// the run bit-identically to one that was never interrupted.
func (s *Step) Checkpoint() *Resume {
	cp := &Resume{
		Round:          s.Round,
		Config:         s.drv.config().Clone(),
		Prev:           s.drv.prevConfig(),
		MonotoneTarget: s.res.MonotoneTarget,
	}
	cp.ChangesPerRound = append([]int(nil), s.res.ChangesPerRound...)
	if s.res.FirstReached != nil {
		cp.FirstReached = append([]int(nil), s.res.FirstReached...)
	}
	return cp
}

// Resume is the engine-level resumable state of an interrupted run: the
// plain-struct form behind the public dynmon Checkpoint.  Build one with
// Step.Checkpoint or Result.ResumeState rather than by hand — bit-identical
// continuation needs every field, including the accumulated trace.
type Resume struct {
	// Round is the last completed round (0 resumes from the start).
	Round int
	// Config is the configuration at the end of Round.
	Config *color.Coloring
	// Prev is the configuration at the end of Round-1.  It seeds the
	// period-2 cycle detector and the dirty frontier; when nil, the first
	// resumed round re-evaluates every vertex and a cycle spanning the
	// checkpoint boundary goes undetected.
	Prev *color.Coloring
	// ChangesPerRound, FirstReached and MonotoneTarget carry the per-run
	// trace accumulated up to Round, so the resumed Result equals an
	// uninterrupted one.
	ChangesPerRound []int
	FirstReached    []int
	MonotoneTarget  bool
}

// runDriver is one stepping tier viewed through the single round loop of
// drive: it advances rounds, exposes the post-round configuration and the
// stop-detector verdicts, and snapshots resumable state.  The three
// implementations (sweep, frontier, bitplane) carry the per-tier
// bookkeeping.
type runDriver interface {
	// stepRound applies round `round`, updating the result's target trace,
	// and returns the number of vertices that changed color.
	stepRound(round int, res *Result, opt Options) int
	// config returns the live post-round configuration.
	config() *color.Coloring
	// prevConfig returns a fresh clone of the previous round's
	// configuration, or nil when no round has been stepped and no seed is
	// known.
	prevConfig() *color.Coloring
	// mono reports whether the current configuration is monochromatic; it is
	// only called when Options.StopWhenMonochromatic is set.
	mono() bool
	// cycle reports whether the last round exactly undid the one before it;
	// it is only called when Options.DetectCycles is set.
	cycle() bool
	// downshift optionally hands the remaining rounds to a cheaper tier
	// (bitplane → frontier on auto runs); nil keeps the current driver.
	downshift(round, changed, maxRounds int, res *Result) runDriver
}

// drive is the engine's single round loop: every tier, streamed or not,
// fresh or resumed, runs through it, so stop-condition ordering and result
// bookkeeping cannot drift between paths.  It advances drv over rounds
// [from, maxRounds], accumulating into res, and yields one Step per round
// when yield is non-nil (a false yield return is the streaming equivalent of
// cancellation: the loop stops, without the terminal bookkeeping of a run
// that stopped on its own).
func (e *Engine) drive(ctx context.Context, drv runDriver, res *Result, opt Options, from, maxRounds int, fixedPointStops bool, yield func(*Step, error) bool) (*Result, error) {
	st := &Step{drv: drv, res: res}
	emit := func(err error) bool {
		if yield == nil {
			return true
		}
		return yield(st, err)
	}
	for round := from; round <= maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			res.prev = drv.prevConfig()
			finishAborted(res, drv.config(), opt)
			*st = Step{Round: res.Rounds, Result: res, drv: drv, res: res}
			emit(err)
			return res, err
		}
		changed := drv.stepRound(round, res, opt)
		res.Rounds = round
		res.ChangesPerRound = append(res.ChangesPerRound, changed)
		if opt.RecordHistory {
			res.History = append(res.History, drv.config().Clone())
		}

		done := false
		// needPrev marks the termination paths whose Result is worth a
		// resume: budget exhaustion, a detected cycle, abort.  A run that
		// stopped on a fixed point or a monochromatic configuration resumes
		// as a no-op without the previous configuration (the pre-stop check
		// in streamRun re-derives the verdict from the trace and the final
		// coloring), so the hot convergence paths — verify sweeps, batch
		// sessions — skip the O(n) snapshot.
		needPrev := true
		switch {
		case changed == 0 && fixedPointStops:
			res.FixedPoint = true
			done, needPrev = true, false
		case opt.StopWhenMonochromatic && drv.mono():
			done, needPrev = true, false
		case opt.DetectCycles && fixedPointStops && drv.cycle():
			res.Cycle = true
			done = true
		case round == maxRounds:
			done = true
		}
		if !done {
			if next := drv.downshift(round, changed, maxRounds, res); next != nil {
				drv = next
			}
		}
		*st = Step{Round: round, Changed: changed, drv: drv, res: res}
		if done {
			if needPrev {
				res.prev = drv.prevConfig()
			}
			finish(res, drv.config(), opt)
			st.Done, st.Result = true, res
			emit(nil)
			return res, nil
		}
		if !emit(nil) {
			return res, nil
		}
	}
	// A resume whose round budget is already exhausted: no rounds to run,
	// finish on the seeded state.
	res.prev = drv.prevConfig()
	finish(res, drv.config(), opt)
	*st = Step{Round: res.Rounds, Done: true, Result: res, drv: drv, res: res}
	emit(nil)
	return res, nil
}

// initTargetTrace seeds the round-0 target bookkeeping shared by every tier.
func initTargetTrace(res *Result, initial *color.Coloring, target color.Color) {
	if target == color.None {
		return
	}
	n := initial.N()
	res.FirstReached = make([]int, n)
	for v := 0; v < n; v++ {
		if initial.At(v) == target {
			res.FirstReached[v] = 0
		} else {
			res.FirstReached[v] = -1
		}
	}
}

// sweepDriver is the full-sweep tier behind drive: the double-buffered loop
// over all n vertices every round, striped across workers (one worker is a
// single stripe, run inline).  Its stripe kind — plain, time-varying,
// masked stochastic or in-place sequential — is fixed when the driver is
// built, and every stripe also does the round's per-vertex bookkeeping for
// its own range (see stripeTask.trace), so no serial pass over the lattice
// follows the round's barrier.  The in-place kind serves the sequential
// schedules: it commits each vertex within the round, so it always runs as
// one stripe, and it leaves the pre-round configuration in cur and the
// post-round one in next exactly like the other kinds, which is what lets
// it share the trace, the swap and the resume seed.
type sweepDriver struct {
	e         *Engine
	st        *runState
	run       func(*stripeTask)
	workers   int
	cur, next *color.Coloring

	// The round's inputs, read by every stripe: the round number, the rule
	// table (nil on the oracle, and from the round after a stripe met a
	// color outside it), the availability model of time-varying runs, the
	// schedule and noise of stochastic runs with the engine's vertex keys
	// (nil unless a draw reads them), the tracked target color with the
	// result's FirstReached trace (nil when no target is tracked), and the
	// cells two rounds back (nil when cycle detection is off).
	round        int
	tab          *rules.Table
	tv           Availability
	sched        *Schedule
	noise        *Noise
	keys         []uint64
	target       color.Color
	firstReached []int
	prevPrev     []color.Color

	cycleFlag bool
	stepped   bool
	seedPrev  *color.Coloring
}

// newSweepDriver builds the sweep tier over the pooled state; sched and
// noise are the run's stochastic parameters, both nil for a deterministic
// run, and fixedPointStops reports whether a zero-change round ends it.
func (e *Engine) newSweepDriver(st *runState, initial *color.Coloring, opt Options, sched *Schedule, noise *Noise, workers int, fixedPointStops bool, rs *Resume) *sweepDriver {
	cur, next := st.buffers(e)
	d := &st.sweep
	*d = sweepDriver{e: e, st: st, run: runSweepTask, workers: workers, cur: cur, next: next,
		tv: opt.TimeVarying, sched: sched, noise: noise, target: opt.Target}
	switch {
	case sched != nil && sched.inPlace():
		d.run = runInPlaceTask
		if noise != nil {
			d.keys = e.vertexKeys()
		}
	case sched != nil:
		d.run, d.keys = runStochasticTask, e.vertexKeys()
	case opt.TimeVarying != nil:
		d.run = runSweepTVTask
	}
	// A forced sequential sweep or FullSweep is the oracle, which steps
	// without the table; a time-varying round reduces neighborhoods the
	// table does not cover.
	if opt.Kernel != KernelSweep && !opt.FullSweep && opt.TimeVarying == nil {
		d.tab = e.table()
	}
	d.cur.CopyFrom(initial)
	// The period-2 trace costs an O(n) compare-and-copy per round, so it is
	// kept only when its verdict can stop the run.  drive consults it only
	// when a zero-change round is a fixed point (a static network, no
	// noise), and a configuration repeating two rounds apart is a cycle only
	// when every round applies the rule in the same fixed order: the
	// synchronous sweep and the raster-sequential schedule.  Under a random
	// sweep order a repeat two rounds apart is not a cycle, since the next
	// permutation can leave it.  The masked schedules are excluded too, even
	// where the mask activates everyone (uniform-async at p=1, vertex-clock
	// at period 1).
	if opt.DetectCycles && fixedPointStops && (sched == nil || sched.Kind == ScheduleSequential) {
		if st.prevPrev == nil {
			st.prevPrev = color.NewColoring(e.sub.Dims(), color.None)
		}
		if rs != nil && rs.Prev != nil {
			st.prevPrev.CopyFrom(rs.Prev)
		} else {
			st.prevPrev.CopyFrom(initial)
		}
		d.prevPrev = st.prevPrev.Cells()
	}
	if rs != nil && rs.Prev != nil {
		d.seedPrev = rs.Prev
	}
	return d
}

// step applies one round from cur into next, one stripe per worker, and
// returns the number of vertices that changed color and whether a
// target-colored vertex lost the color; it records the stripes' joint
// period-2 verdict in cycleFlag, and drops the rule table once a stripe
// has left it.
func (d *sweepDriver) step() (changed int, lost bool) {
	st := d.st
	done := st.stripeAcross(d.cur.N(), d.workers, func(t *stripeTask, lo, hi int) {
		*t = stripeTask{run: d.run, wg: &st.wg, sw: d, lo: lo, hi: hi}
	})
	same := true
	for i := range done {
		changed += done[i].changed
		lost = lost || done[i].lost
		same = same && done[i].same
		if done[i].leftTable {
			d.tab = nil
		}
	}
	d.cycleFlag = same
	return changed, lost
}

func (d *sweepDriver) stepRound(round int, res *Result, opt Options) int {
	d.round, d.firstReached = round, res.FirstReached
	changed, lost := d.step()
	if lost {
		res.MonotoneTarget = false
	}
	d.cur, d.next = d.next, d.cur
	d.stepped = true
	return changed
}

func (d *sweepDriver) config() *color.Coloring { return d.cur }

func (d *sweepDriver) prevConfig() *color.Coloring {
	if !d.stepped {
		if d.seedPrev != nil {
			return d.seedPrev.Clone()
		}
		return nil
	}
	// After the swap in stepRound, next holds the previous configuration.
	return d.next.Clone()
}

func (d *sweepDriver) mono() bool {
	_, ok := d.cur.IsMonochromatic()
	return ok
}

func (d *sweepDriver) cycle() bool { return d.prevPrev != nil && d.cycleFlag }

func (d *sweepDriver) downshift(int, int, int, *Result) runDriver { return nil }

// StepParallel applies one synchronous round using the striped parallel
// stepper, reading from cur and writing into next, and returns the number of
// vertices that changed color.  It produces exactly the same result as Step;
// it exists so benchmarks and throughput experiments can drive the parallel
// path without going through Run.  Unlike Step it looks colors up in the
// engine's rule table, so at one worker it is the tabulated round and Step
// the oracle.
//
// Stripes run on the process-wide persistent worker pool (see pool.go)
// through the run state's pre-allocated task buffer, so steady-state
// parallel stepping performs zero heap allocations (pinned by
// TestParallelStepDoesNotAllocate).  OS-level parallelism is naturally
// capped at the pool size, GOMAXPROCS; requesting more workers than that
// still computes every stripe, just not all at once.
func (e *Engine) StepParallel(cur, next *color.Coloring, workers int) int {
	if cur.Dims() != e.sub.Dims() || next.Dims() != e.sub.Dims() {
		panic(fmt.Sprintf("sim: StepParallel dimension mismatch (%v, %v) vs %v", cur.Dims(), next.Dims(), e.sub.Dims()))
	}
	if workers <= 0 {
		workers = 1
	}
	st := e.getState()
	defer e.putState(st)
	d := &st.sweep
	*d = sweepDriver{e: e, st: st, run: runSweepTask, workers: workers, cur: cur, next: next, tab: e.table()}
	changed, _ := d.step()
	return changed
}

// frontierDriver is the dirty-frontier tier behind drive, with all per-round
// bookkeeping done on the change journal instead of the full lattice.
type frontierDriver struct {
	f        *Frontier
	stepped  bool
	seedPrev *color.Coloring
}

func (d *frontierDriver) stepRound(round int, res *Result, opt Options) int {
	f := d.f
	changed := f.Step()
	if opt.Target != color.None {
		for i, v := range f.chV {
			old, nc := f.chOld[i], f.chNew[i]
			if old == opt.Target && nc != opt.Target {
				res.MonotoneTarget = false
			}
			if nc == opt.Target && res.FirstReached[v] < 0 {
				res.FirstReached[v] = round
			}
		}
	}
	d.stepped = true
	return changed
}

func (d *frontierDriver) config() *color.Coloring { return d.f.cfg }

func (d *frontierDriver) prevConfig() *color.Coloring {
	if !d.stepped {
		if d.seedPrev != nil {
			return d.seedPrev.Clone()
		}
		return nil
	}
	// Undo the last round's journal on a copy of the configuration.
	prev := d.f.cfg.Clone()
	for i, v := range d.f.chV {
		prev.Set(int(v), d.f.chOld[i])
	}
	return prev
}

func (d *frontierDriver) mono() bool  { return d.f.Monochromatic() }
func (d *frontierDriver) cycle() bool { return d.f.Cycle() }

func (d *frontierDriver) downshift(int, int, int, *Result) runDriver { return nil }

// bitplaneDriver is the word-parallel bit-sliced tier behind drive,
// including the auto-tier mid-run handoff to the frontier once the change
// rate gets low.
type bitplaneDriver struct {
	e           *Engine
	st          *runState
	bp          *Bitplane
	workers     int
	forced      bool
	trackTarget bool
	lowChurn    int
}

// newBitplaneDriver builds the bitplane tier over the pooled state, or
// returns an error wrapping ErrBitplaneIneligible (before touching any
// buffer) when the run has no exact word-parallel form.  noise is the run's
// synchronous ε-fault model, nil for deterministic runs.
func (e *Engine) newBitplaneDriver(st *runState, initial *color.Coloring, opt Options, noise *Noise, workers int, forced bool) (*bitplaneDriver, error) {
	noiseColors := 0
	if noise != nil {
		noiseColors = noise.Colors
	}
	k, plan, kern, err := e.bitplaneCheck(initial, noiseColors)
	if err != nil {
		return nil, err
	}
	if st.bp == nil {
		st.bp = e.newBitplaneBuffers()
	}
	bp := st.bp
	if err := bp.resetWith(initial, k, plan, kern); err != nil {
		return nil, err
	}
	bp.noise = noise
	if noise != nil {
		bp.keys = e.vertexKeys()
	}
	// A noisy run never stops on a cycle (see streamRun), so it skips the
	// tracking.
	bp.DetectCycles(opt.DetectCycles && noise == nil)
	d := &bitplaneDriver{e: e, st: st, bp: bp, workers: workers, forced: forced}
	if opt.Target != color.None {
		d.trackTarget = true
		bp.targetMask(bp.tgtPrev, opt.Target)
		copy(bp.tgtEver, bp.tgtPrev)
	}
	return d, nil
}

func (d *bitplaneDriver) stepRound(round int, res *Result, opt Options) int {
	bp := d.bp
	changed := bp.stepStriped(d.st, d.workers)
	if d.trackTarget {
		bp.targetMask(bp.tgtCur, opt.Target)
		for w := 0; w < bp.words; w++ {
			if bp.tgtPrev[w]&^bp.tgtCur[w] != 0 {
				res.MonotoneTarget = false
			}
			newly := bp.tgtCur[w] &^ bp.tgtEver[w]
			for newly != 0 {
				b := bits.TrailingZeros64(newly)
				newly &= newly - 1
				res.FirstReached[w<<6+b] = round
			}
			bp.tgtEver[w] |= bp.tgtCur[w]
		}
		bp.tgtPrev, bp.tgtCur = bp.tgtCur, bp.tgtPrev
	}
	return changed
}

func (d *bitplaneDriver) config() *color.Coloring { return d.bp.Config() }

func (d *bitplaneDriver) prevConfig() *color.Coloring {
	bp := d.bp
	if bp.round == 0 {
		return nil
	}
	prev := bp.Config().Clone()
	bp.lastChanges(func(v int32, old color.Color) {
		prev.Set(int(v), old)
	})
	return prev
}

func (d *bitplaneDriver) mono() bool  { return d.bp.Monochromatic() }
func (d *bitplaneDriver) cycle() bool { return d.bp.Cycle() }

// downshift hands the run to the dirty-frontier stepper once the change rate
// stays low (sequential auto-tier noise-free runs only — the frontier is
// single-goroutine and has no stochastic form, and a forced tier is a
// contract).  The handoff is exact: the hybrid run produces the same Result,
// round for round, as either pure stepper.
func (d *bitplaneDriver) downshift(round, changed, maxRounds int, res *Result) runDriver {
	if d.forced || d.workers != 1 || d.bp.noise != nil || round >= maxRounds {
		return nil
	}
	if changed*downshiftFactor < d.bp.nbits {
		d.lowChurn++
	} else {
		d.lowChurn = 0
	}
	if d.lowChurn < downshiftRounds {
		return nil
	}
	f := d.st.frontier(d.e)
	f.seedFromBitplane(d.bp)
	res.Downshift = round + 1
	// Hand over the previous round's configuration too, so a checkpoint
	// taken at exactly the handoff round keeps its cycle-detector seed.
	return &frontierDriver{f: f, seedPrev: d.prevConfig()}
}

// Stream returns the run as a pull-based sequence of per-round steps: the
// streaming form of RunContext, bit-identical to it (both consume the same
// single round loop).  The iterator yields one Step after every synchronous
// round; the terminal step has Done set and carries the completed Result.
// Breaking out of the loop early is the streaming equivalent of
// cancellation: the run stops at that round boundary and its pooled buffers
// are returned to the engine.  When ctx is canceled the stream yields a
// final (partial-result) step together with ctx.Err().
//
// Errors that would make RunContext return (nil, error) — an ineligible
// forced kernel, a time-varying run forcing an incremental kernel — are
// yielded once as (nil, error).
//
// Observers in opt are honored exactly as in RunContext, through the
// ObserveStream adapter.
func (e *Engine) Stream(ctx context.Context, initial *color.Coloring, opt Options) iter.Seq2[*Step, error] {
	return ObserveStream(e.streamRun(ctx, initial, nil, opt), opt.Observers)
}

// StreamFrom is Stream continuing from a checkpoint instead of an initial
// coloring: rounds resume at rs.Round+1 under the same Options the original
// run used, bit-identically to a run that was never interrupted.  The
// bitplane tier cannot be resumed into (its journal state is not captured by
// Resume): forcing KernelBitplane returns an error and automatic selection
// picks a scalar tier — which, by the engine's tier contract, changes
// nothing about the result.
func (e *Engine) StreamFrom(ctx context.Context, rs *Resume, opt Options) iter.Seq2[*Step, error] {
	return ObserveStream(e.streamRun(ctx, nil, rs, opt), opt.Observers)
}

// ResumeContext is RunContext continuing from a checkpoint: it drains
// StreamFrom and returns the completed Result.
func (e *Engine) ResumeContext(ctx context.Context, rs *Resume, opt Options) (*Result, error) {
	return drainStream(e.StreamFrom(ctx, rs, opt))
}

// ObserveStream attaches observers to a step stream: OnRound after every
// yielded round and OnFinish on the terminal step.  It is the one adapter
// through which all Observer plumbing now runs — RunContext is a drain of
// ObserveStream — so observed and unobserved runs cannot drift.  Aborted
// steps (those yielded with an error) notify nobody, preserving the Observer
// contract that OnFinish is only invoked when the run stops on its own.
func ObserveStream(seq iter.Seq2[*Step, error], observers []Observer) iter.Seq2[*Step, error] {
	if len(observers) == 0 {
		return seq
	}
	return func(yield func(*Step, error) bool) {
		for st, err := range seq {
			if err == nil && st != nil {
				for _, o := range observers {
					o.OnRound(st.Round, st.Config())
				}
				if st.Done {
					for _, o := range observers {
						o.OnFinish(st.Result)
					}
				}
			}
			if !yield(st, err) {
				return
			}
		}
	}
}

// drainStream runs a step stream to completion and returns its final (or,
// under cancellation, partial) Result.
func drainStream(seq iter.Seq2[*Step, error]) (*Result, error) {
	var res *Result
	for st, err := range seq {
		if st != nil && st.Result != nil {
			res = st.Result
		}
		if err != nil {
			return res, err
		}
		if st != nil && st.Done {
			return res, nil
		}
	}
	return res, nil
}

// streamRun is the generator behind Stream, StreamFrom, RunContext and
// ResumeContext: kernel selection (identical for all four — the automatic
// tier choice depends only on Options), driver construction, then the drive
// loop.  Exactly one of initial and rs is non-nil.
func (e *Engine) streamRun(ctx context.Context, initial *color.Coloring, rs *Resume, opt Options) iter.Seq2[*Step, error] {
	return func(yield func(*Step, error) bool) {
		d := e.sub.Dims()
		if rs != nil {
			if err := rs.validate(d); err != nil {
				yield(nil, err)
				return
			}
			initial = rs.Config
		} else if initial.Dims() != d {
			panic(fmt.Sprintf("sim: Run dimension mismatch %v vs %v", initial.Dims(), d))
		}
		maxRounds := opt.MaxRounds
		if maxRounds <= 0 {
			maxRounds = e.sub.DefaultMaxRounds()
		}
		tv := opt.TimeVarying
		fixedPointStops := tv == nil || staticAvailability(tv)

		sched, noise, err := opt.stochasticParams()
		if err == nil {
			err = kernelConflict(opt, sched, rs != nil)
		}
		if err != nil {
			yield(nil, err)
			return
		}
		if sched != nil {
			// A zero-change round proves a fixed point only when every vertex
			// was guaranteed a rule application that round: always true for
			// the sequential kinds, true for the masked kinds only when the
			// mask degenerates to everyone, and never true under noise (a
			// fault can reignite the dynamics at any round).
			switch {
			case noise != nil:
				fixedPointStops = false
			case sched.Kind == ScheduleUniformAsync:
				fixedPointStops = sched.P >= 1
			case sched.Kind == ScheduleVertexClock:
				fixedPointStops = sched.Period == 1
			}
		}

		st := e.getState()
		defer e.putState(st)
		// needScalar marks runs the bitplane tier is never auto-selected for:
		// observers and history would force an unpack per round, erasing its
		// advantage; FullSweep keeps its contract as the oracle stepper; and
		// a checkpoint carries scalar state only.
		needScalar := rs != nil || opt.FullSweep || opt.RecordHistory || len(opt.Observers) > 0
		// A forced parallel run takes its worker count as if Parallel were
		// set.
		par := opt
		par.Parallel = opt.Parallel || opt.Kernel == KernelParallel
		workers := par.EffectiveWorkers(d.N())

		// Tier selection; kernelConflict has already rejected every forced
		// tier that cannot step the run.  Automatic selection takes the
		// bitplane tier whenever it qualifies and the run needs no scalar
		// view (synchronous ε-faulty runs included, with word-parallel fault
		// masks), then the frontier for sequential deterministic runs on a
		// static network, and the sweep otherwise.
		var (
			drv    runDriver
			kernel Kernel
		)
		if opt.Kernel == KernelBitplane || (opt.Kernel == KernelAuto && tv == nil && !needScalar && (sched == nil || sched.Kind == ScheduleSynchronous)) {
			bd, err := e.newBitplaneDriver(st, initial, opt, noise, workers, opt.Kernel == KernelBitplane)
			switch {
			case err == nil:
				drv, kernel = bd, KernelBitplane
			case opt.Kernel == KernelBitplane:
				yield(nil, err)
				return
			}
		}
		switch {
		case drv != nil:
		case opt.Kernel == KernelFrontier || (opt.Kernel == KernelAuto && sched == nil && tv == nil && workers == 1 && !opt.FullSweep):
			drv, kernel, workers = e.newFrontierDriver(st, initial, rs), KernelFrontier, 1
		default:
			// The sequential schedules commit within a round, so they step
			// as one stripe.
			if opt.Kernel == KernelSweep || sched != nil && sched.inPlace() {
				workers = 1
			}
			kernel = KernelSweep
			if workers > 1 || opt.Kernel == KernelParallel {
				kernel = KernelParallel
			}
			drv = e.newSweepDriver(st, initial, opt, sched, noise, workers, fixedPointStops, rs)
		}

		res := e.initRunResult(drv, initial, rs, opt, workers, kernel, &maxRounds, fixedPointStops)
		from := 1
		if rs != nil {
			from = rs.Round + 1
		}
		e.drive(ctx, drv, res, opt, from, maxRounds, fixedPointStops, yield)
	}
}

// kernelConflict returns the error of a run whose forced tier cannot step
// it, wrapping the sentinel that names the reason, or nil.  sched is the
// run's normalized stochastic schedule (nil for a deterministic run) and
// resumed marks a run continuing from a checkpoint.
func kernelConflict(opt Options, sched *Schedule, resumed bool) error {
	k, tv := opt.Kernel, opt.TimeVarying
	switch {
	case k < KernelAuto || k > KernelParallel:
		return fmt.Errorf("sim: unknown kernel %v", k)
	case sched != nil && tv != nil:
		return fmt.Errorf("%w: stochastic schedules and noise cannot be combined with time-varying availability", ErrStochasticSweepOnly)
	case sched != nil && k == KernelFrontier:
		return fmt.Errorf("%w: kernel %v re-evaluates only vertices whose neighborhood changed color, but a masked or faulty vertex must be re-evaluated regardless", ErrStochasticSweepOnly, k)
	case sched != nil && k == KernelBitplane && sched.Kind != ScheduleSynchronous:
		return fmt.Errorf("%w: kernel %v steps every vertex every round and has no %v schedule", ErrStochasticSweepOnly, k, sched.Kind)
	case sched != nil && k == KernelParallel && sched.inPlace():
		return fmt.Errorf("%w: the %v schedule commits updates within a sweep and cannot be striped", ErrStochasticSweepOnly, sched.Kind)
	case tv != nil && (k == KernelBitplane || k == KernelFrontier):
		return fmt.Errorf("%w: kernel %v re-evaluates only vertices whose neighborhood changed color, but link churn can change a vertex's input without any color changing", ErrTimeVaryingSweepOnly, k)
	case resumed && k == KernelBitplane:
		return fmt.Errorf("%w: a checkpoint carries scalar state only; resumed runs use the scalar tiers", ErrBitplaneIneligible)
	}
	return nil
}

// initRunResult builds the Result shell of a run — effective workers and
// kernel, the (possibly checkpoint-seeded) target trace — and applies the
// terminal-checkpoint no-op rule: a checkpoint whose state already satisfies
// a stop condition resumes without stepping past the round its run stopped
// at, by clamping maxRounds.  Genuine mid-run checkpoints never trip this:
// their run would have stopped there instead of continuing.  (A run that
// stopped on a detected cycle is the exception — the oscillation is not
// recognizable from one configuration, so resuming it continues the
// oscillation and re-detects the cycle within two rounds.)
func (e *Engine) initRunResult(drv runDriver, initial *color.Coloring, rs *Resume, opt Options, workers int, kernel Kernel, maxRounds *int, fixedPointStops bool) *Result {
	res := &Result{MonotoneTarget: true, Workers: workers, Kernel: kernel}
	if rs == nil {
		initTargetTrace(res, initial, opt.Target)
		return res
	}
	res.Rounds = rs.Round
	res.ChangesPerRound = append([]int(nil), rs.ChangesPerRound...)
	if opt.Target != color.None {
		if rs.FirstReached != nil {
			res.FirstReached = append([]int(nil), rs.FirstReached...)
			res.MonotoneTarget = rs.MonotoneTarget
		} else {
			initTargetTrace(res, initial, opt.Target)
		}
	}
	if rs.Round > 0 {
		switch {
		case fixedPointStops && rs.ChangesPerRound[rs.Round-1] == 0:
			res.FixedPoint = true
			*maxRounds = rs.Round
		case opt.StopWhenMonochromatic && drv.mono():
			*maxRounds = rs.Round
		}
	}
	return res
}

// newFrontierDriver builds the frontier tier over the pooled state, seeded
// either fresh from the initial coloring or from a checkpoint.
func (e *Engine) newFrontierDriver(st *runState, initial *color.Coloring, rs *Resume) *frontierDriver {
	f := st.frontier(e)
	if rs == nil || rs.Round == 0 {
		f.Reset(initial)
		return &frontierDriver{f: f}
	}
	f.seedFromCheckpoint(rs.Config, rs.Prev, rs.Round)
	return &frontierDriver{f: f, seedPrev: rs.Prev}
}

// validate checks a Resume against the engine's substrate.
func (rs *Resume) validate(d grid.Dims) error {
	if rs == nil || rs.Config == nil {
		return fmt.Errorf("sim: Resume without a configuration")
	}
	if rs.Config.Dims() != d {
		return fmt.Errorf("sim: Resume configuration dimensions %v do not match substrate %v", rs.Config.Dims(), d)
	}
	if rs.Prev != nil && rs.Prev.Dims() != d {
		return fmt.Errorf("sim: Resume previous-configuration dimensions %v do not match substrate %v", rs.Prev.Dims(), d)
	}
	if rs.Round < 0 {
		return fmt.Errorf("sim: Resume with negative round %d", rs.Round)
	}
	if rs.Round != len(rs.ChangesPerRound) {
		return fmt.Errorf("sim: Resume round %d does not match its %d-round change trace", rs.Round, len(rs.ChangesPerRound))
	}
	if rs.FirstReached != nil && len(rs.FirstReached) != rs.Config.N() {
		return fmt.Errorf("sim: Resume first-reached trace has %d entries, want %d", len(rs.FirstReached), rs.Config.N())
	}
	return nil
}

// ResumeState returns the resumable state at the end of the run — the
// "emit a checkpoint from a Result" primitive.  It is a deep snapshot; ok is
// false when the result carries no final configuration (a zero Result).
// Resuming a finished run is a no-op continuation (its stop condition holds
// immediately unless the options changed); the intended use is the partial
// Result of a context-canceled run.
func (r *Result) ResumeState() (*Resume, bool) {
	if r == nil || r.Final == nil {
		return nil, false
	}
	rs := &Resume{
		Round:          r.Rounds,
		Config:         r.Final.Clone(),
		MonotoneTarget: r.MonotoneTarget,
	}
	if r.prev != nil {
		rs.Prev = r.prev.Clone()
	}
	rs.ChangesPerRound = append([]int(nil), r.ChangesPerRound...)
	if r.FirstReached != nil {
		rs.FirstReached = append([]int(nil), r.FirstReached...)
	}
	return rs, true
}
