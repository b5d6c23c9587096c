package sim

import (
	"errors"
	"fmt"

	"repro/internal/color"
	"repro/internal/rng"
	"repro/internal/rules"
)

// ErrStochasticSweepOnly is the error (wrapped) returned by stochastic runs —
// a non-synchronous Schedule or an active Noise — that force a kernel with
// no stochastic form.  The frontier tier assumes a vertex can only change
// when a neighbor changed color in the previous round; under a masked
// schedule a skipped vertex must still be re-evaluated when its clock fires,
// and under noise any vertex can misfire at any round.  The bitplane tier
// evaluates every vertex every round, so it runs synchronous ε-faulty runs
// (fault masks applied per word, see Bitplane) but no schedule.  Every other
// stochastic run sweeps every vertex every round, sequentially or striped
// (or every vertex once per sweep, for the sequential schedules, which
// cannot be striped).
var ErrStochasticSweepOnly = errors.New("sim: stochastic runs require full-sweep semantics")

// ScheduleKind identifies an update discipline of the engine.
type ScheduleKind int

const (
	// ScheduleSynchronous is the paper's execution model and the default:
	// every vertex applies the rule every round, all simultaneously.
	ScheduleSynchronous ScheduleKind = iota
	// ScheduleUniformAsync activates each vertex independently with
	// probability P each round (the α-asynchronous model): active vertices
	// apply the rule simultaneously to the previous configuration, inactive
	// vertices keep their color.
	ScheduleUniformAsync
	// ScheduleSequential visits every vertex once per round in raster order,
	// committing each new color immediately so later vertices observe earlier
	// updates.
	ScheduleSequential
	// ScheduleRandomSequential is ScheduleSequential with a fresh seeded
	// permutation each round.
	ScheduleRandomSequential
	// ScheduleVertexClock gives each vertex its own deterministic clock: a
	// per-vertex period in {1..Period} and phase, both derived from Seed, and
	// the vertex applies the rule only on rounds matching its phase.  It
	// models heterogeneous update rates without any shared clock.
	ScheduleVertexClock
)

// String returns the schedule name used in specs and experiment tables.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleSynchronous:
		return "synchronous"
	case ScheduleUniformAsync:
		return "uniform-async"
	case ScheduleSequential:
		return "sequential"
	case ScheduleRandomSequential:
		return "random-sequential"
	case ScheduleVertexClock:
		return "vertex-clock"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ParseScheduleKind resolves a schedule name ("" means synchronous), the
// inverse of String.
func ParseScheduleKind(name string) (ScheduleKind, error) {
	switch name {
	case "", "synchronous":
		return ScheduleSynchronous, nil
	case "uniform-async":
		return ScheduleUniformAsync, nil
	case "sequential":
		return ScheduleSequential, nil
	case "random-sequential":
		return ScheduleRandomSequential, nil
	case "vertex-clock":
		return ScheduleVertexClock, nil
	default:
		return ScheduleSynchronous, fmt.Errorf("sim: unknown schedule %q (want synchronous, uniform-async, sequential, random-sequential or vertex-clock)", name)
	}
}

// Schedule selects the update discipline of a run (Options.Schedule).  All
// randomness is counter-based — pure rng.Hash functions of (Seed, round,
// vertex) — so a schedule carries no mutable state: the same seed produces
// the same activation pattern under any worker count, any kernel tier and
// across any checkpoint/resume boundary.
type Schedule struct {
	// Kind is the update discipline; the zero value is synchronous.
	Kind ScheduleKind
	// P is the per-round activation probability of ScheduleUniformAsync, in
	// (0, 1]; zero selects the default 0.5.  Other kinds ignore it.
	P float64
	// Period bounds the per-vertex period of ScheduleVertexClock (each vertex
	// draws a period in {1..Period}); zero selects the default 4.  Other
	// kinds ignore it.
	Period int
	// Seed selects the activation stream (and the sweep permutations of
	// ScheduleRandomSequential).
	Seed uint64
}

// normalized returns the schedule with defaults filled in.
func (s Schedule) normalized() Schedule {
	if s.Kind == ScheduleUniformAsync && s.P == 0 {
		s.P = 0.5
	}
	if s.Kind == ScheduleVertexClock && s.Period == 0 {
		s.Period = 4
	}
	return s
}

// validate checks a normalized schedule.
func (s Schedule) validate() error {
	switch s.Kind {
	case ScheduleSynchronous, ScheduleSequential, ScheduleRandomSequential:
	case ScheduleUniformAsync:
		if !(s.P > 0 && s.P <= 1) { // also rejects NaN
			return fmt.Errorf("sim: uniform-async activation probability %v outside (0, 1]", s.P)
		}
	case ScheduleVertexClock:
		if s.Period < 1 {
			return fmt.Errorf("sim: vertex-clock period %d < 1", s.Period)
		}
	default:
		return fmt.Errorf("sim: unknown schedule kind %d", int(s.Kind))
	}
	return nil
}

// inPlace reports whether the schedule commits updates within a sweep
// (sequential kinds), which pins the run to one worker.
func (s Schedule) inPlace() bool {
	return s.Kind == ScheduleSequential || s.Kind == ScheduleRandomSequential
}

// active reports whether vertex v applies the rule in the given round under
// a masked (non-sequential) schedule.  It is a pure function of
// (Seed, round, v); see the Schedule documentation.
func (s *Schedule) active(round, v uint64) bool {
	switch s.Kind {
	case ScheduleUniformAsync:
		return rng.Unit(rng.Hash(s.Seed, round, v)) < s.P
	case ScheduleVertexClock:
		h := rng.Hash(s.Seed, v)
		period := 1 + h%uint64(s.Period)
		phase := (h >> 32) % period
		return round%period == phase
	default:
		return true
	}
}

// Noise makes every rule application ε-faulty (Options.Noise): with
// probability Eps the computed color is replaced by a uniform draw from the
// whole palette {1..Colors}, so a fault changes the color with probability
// Eps·(Colors−1)/Colors.  The draws are rules.FaultRound — counter-based on
// (Seed, round, vertex) — so a noisy run is exactly as reproducible as a
// deterministic one.
type Noise struct {
	// Eps is the per-application fault probability in [0, 1]; zero disables
	// the noise entirely.
	Eps float64
	// Colors is the palette size faulted applications draw from.
	Colors int
	// Seed selects the fault stream.
	Seed uint64
}

// validate checks an active noise model.
func (n Noise) validate() error {
	if !(n.Eps >= 0 && n.Eps <= 1) { // also rejects NaN
		return fmt.Errorf("sim: noise eps %v outside [0, 1]", n.Eps)
	}
	if n.Eps > 0 && n.Colors < 1 {
		return fmt.Errorf("sim: noise over a %d-color palette", n.Colors)
	}
	return nil
}

// round returns the fault draws of one round.
func (n *Noise) round(r uint64) rules.FaultRound {
	return rules.NewFaultRound(n.Seed, r, n.Eps, n.Colors)
}

// stochasticParams normalizes and validates the run's Schedule and Noise
// options.  It returns (nil, nil, nil) for a plain deterministic synchronous
// run; otherwise sched is the normalized schedule (synchronous when only
// noise is present) and noise is non-nil only when Eps > 0.
func (o Options) stochasticParams() (*Schedule, *Noise, error) {
	var sched Schedule
	if o.Schedule != nil {
		sched = o.Schedule.normalized()
		if err := sched.validate(); err != nil {
			return nil, nil, err
		}
	}
	var noise *Noise
	if o.Noise != nil {
		if err := o.Noise.validate(); err != nil {
			return nil, nil, err
		}
		if o.Noise.Eps > 0 {
			n := *o.Noise
			noise = &n
		}
	}
	if sched.Kind == ScheduleSynchronous && noise == nil {
		return nil, nil, nil
	}
	return &sched, noise, nil
}

// stepRangeStochastic is the masked stochastic inner loop: vertex v applies
// the rule only when the schedule activates it this round (keeping its color
// otherwise), and the computed color passes through the ε-fault draw when
// noise is active.  Reads come from cur, writes go to next, so stripes
// parallelize exactly like the synchronous sweep; all randomness is
// counter-based, making the result independent of the stripe partition.
func (e *Engine) stepRangeStochastic(round int, sched *Schedule, noise *Noise, cur, next []color.Color, lo, hi int, scratch []color.Color) int {
	fwd, off := e.csr.Neighbors, e.csr.Off
	cr := e.countRule
	r := uint64(round)
	var faults rules.FaultRound
	if noise != nil {
		faults = noise.round(r)
	}
	changed := 0
	for v := lo; v < hi; v++ {
		cv := cur[v]
		if !sched.active(r, uint64(v)) {
			next[v] = cv
			continue
		}
		nc := e.nextColor(cr, fwd, off, cur, v, cv, &scratch)
		if noise != nil {
			if c, ok := faults.Fault(uint64(v)); ok {
				nc = c
			}
		}
		next[v] = nc
		if nc != cv {
			changed++
		}
	}
	return changed
}

// nextColor computes one rule application over the CSR row of v: the counts
// fast path when the neighborhood fits a Counts vector exactly, the rule's
// slice path otherwise.  scratch is passed by pointer so growth survives for
// the caller's next vertex.
func (e *Engine) nextColor(cr rules.CountRule, fwd, off []int32, cells []color.Color, v int, cv color.Color, scratch *[]color.Color) color.Color {
	row := fwd[off[v]:off[v+1]]
	if cr != nil {
		var cs rules.Counts
		fits := true
		for _, u := range row {
			if !cs.AddOK(cells[u]) {
				fits = false
				break
			}
		}
		if fits {
			return cr.NextFromCounts(cv, cs)
		}
	}
	s := (*scratch)[:0]
	for _, u := range row {
		s = append(s, cells[u])
	}
	*scratch = s
	return e.rule.Next(cv, s)
}

// inPlaceDriver is the tier behind drive for the sequential schedules: one
// in-place sweep per round in which each vertex commits immediately, so
// later vertices observe earlier commits and the sweep cannot be striped.
// Every random draw is counter-based, so the driver carries no generator
// state and a resumed run continues bit-identically from just
// (configuration, round).  The masked schedules run on sweepDriver.
type inPlaceDriver struct {
	e         *Engine
	st        *runState
	cur, next *color.Coloring
	sched     Schedule
	noise     *Noise
	// order is the sweep-order buffer of ScheduleRandomSequential, a
	// per-round derived permutation.
	order []int
	// prevPrev backs period-2 cycle detection, maintained only for the
	// deterministic raster-sequential noise-free case (every other stochastic
	// run makes the verdict meaningless).
	prevPrev  *color.Coloring
	cycleFlag bool
	stepped   bool
	seedPrev  *color.Coloring
}

func (e *Engine) newInPlaceDriver(st *runState, initial *color.Coloring, opt Options, sched *Schedule, noise *Noise, rs *Resume) *inPlaceDriver {
	cur, next := st.buffers(e)
	d := &inPlaceDriver{e: e, st: st, cur: cur, next: next, sched: *sched, noise: noise}
	d.cur.CopyFrom(initial)
	if opt.DetectCycles && sched.Kind == ScheduleSequential && noise == nil {
		if st.prevPrev == nil {
			st.prevPrev = color.NewColoring(e.sub.Dims(), color.None)
		}
		d.prevPrev = st.prevPrev
		if rs != nil && rs.Prev != nil {
			d.prevPrev.CopyFrom(rs.Prev)
		} else {
			d.prevPrev.CopyFrom(initial)
		}
	}
	if rs != nil && rs.Prev != nil {
		d.seedPrev = rs.Prev
	}
	return d
}

// stepRound runs one sequential sweep: the configuration before the sweep
// is snapshotted into the spare buffer (it becomes prevConfig), then each
// vertex in this round's order recomputes its color against the live cells
// so later vertices observe earlier commits.
func (d *inPlaceDriver) stepRound(round int, res *Result, opt Options) int {
	e := d.e
	cells := d.cur.Cells()
	n := len(cells)
	d.next.CopyFrom(d.cur)
	fwd, off := e.csr.Neighbors, e.csr.Off
	cr := e.countRule
	scratch := d.st.scratch
	r := uint64(round)
	var faults rules.FaultRound
	if d.noise != nil {
		faults = d.noise.round(r)
	}
	changed := 0
	step := func(v int) {
		cv := cells[v]
		nc := e.nextColor(cr, fwd, off, cells, v, cv, &scratch)
		if d.noise != nil {
			if c, ok := faults.Fault(uint64(v)); ok {
				nc = c
			}
		}
		if nc == cv {
			return
		}
		cells[v] = nc
		changed++
		if opt.Target != color.None {
			if cv == opt.Target {
				res.MonotoneTarget = false
			}
			if nc == opt.Target && res.FirstReached[v] < 0 {
				res.FirstReached[v] = round
			}
		}
	}
	if d.sched.Kind == ScheduleRandomSequential {
		for _, v := range d.orderFor(r, n) {
			step(v)
		}
	} else {
		for v := 0; v < n; v++ {
			step(v)
		}
	}
	d.st.scratch = scratch
	if d.prevPrev != nil {
		d.cycleFlag = d.cur.Equal(d.prevPrev)
		d.prevPrev.CopyFrom(d.next)
	}
	d.stepped = true
	return changed
}

// orderFor returns this round's sweep permutation, derived statelessly from
// (Seed, round) so any resumed run replays the identical order.
func (d *inPlaceDriver) orderFor(round uint64, n int) []int {
	if cap(d.order) < n {
		d.order = make([]int, n)
	}
	order := d.order[:n]
	for i := range order {
		order[i] = i
	}
	src := rng.New(rng.Hash(d.sched.Seed, round))
	src.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (d *inPlaceDriver) config() *color.Coloring { return d.cur }

func (d *inPlaceDriver) prevConfig() *color.Coloring {
	if !d.stepped {
		if d.seedPrev != nil {
			return d.seedPrev.Clone()
		}
		return nil
	}
	// The pre-sweep snapshot left the previous configuration in the spare
	// buffer.
	return d.next.Clone()
}

func (d *inPlaceDriver) mono() bool {
	_, ok := d.cur.IsMonochromatic()
	return ok
}

func (d *inPlaceDriver) cycle() bool { return d.prevPrev != nil && d.cycleFlag }

func (d *inPlaceDriver) downshift(int, int, int, *Result) runDriver { return nil }
