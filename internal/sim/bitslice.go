package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// ErrBitsliceIneligible reports that a batch cannot run on the bit-sliced
// ensemble tier and must fall back to the per-run loop.  Callers branch on
// it with errors.Is; the wrapped message says which requirement failed.
var ErrBitsliceIneligible = errors.New("sim: batch has no exact bit-sliced form")

// BitsliceLanes is the ensemble width of the bit-sliced tier: one replica
// per bit of a 64-bit word.
const BitsliceLanes = color.MaxLanes

// Bitslice steps up to 64 independent runs of one engine simultaneously by
// flipping the bitplane tier's packing axis: where a Bitplane packs 64
// VERTICES of one run per word, a Bitslice packs the same vertex of 64
// REPLICAS per word (bit r = replica r's one-bit state, internal/color
// lane layout), written by a fill the caller supplies: PackLanes over
// colorings, or replicas drawn straight into the words.  Each round gathers
// the four neighbor words — on a torus as the shift plan's rotations plus
// border patches, elsewhere through the engine's CSR index — and pushes
// all lanes through the same carry-save rules.BitKernel the bitplane tier
// uses; the kernels are bitwise, so they are exact per lane regardless of
// which axis the bits came from.  The tier requires a 4-regular substrate,
// a BitRule with a two-color kernel and replica states over {1, 2}.
//
// Finished replicas freeze in place: Freeze masks lanes out of the update
// (their bits hold their terminal state) while the remaining lanes keep
// stepping, which is how ensembles with mixed termination rounds share one
// word stream.  The fixed-point stop reads an OR-fold of each round's diff
// words; per-lane change counts are kept only for RunBatchSliced, whose
// Results carry ChangesPerRound.  Steady-state stepping allocates nothing
// (pinned by TestBitsliceStepAllocs).
type Bitslice struct {
	e    *Engine
	kern rules.BitKernel
	// plan is the torus's shift decomposition, nil off the tori.
	plan *grid.ShiftPlan
	// n is the vertex count; every plane array holds one word per vertex.
	n     int
	lanes int
	// laneMask has bits 0..lanes-1 set; active is the subset still stepping.
	laneMask, active uint64
	round            int
	// counting keeps the per-lane change counts (else they read 0).
	counting bool

	// st is the kernel view: Planes == 1, slices indexed by vertex.
	st rules.BitState

	// Per-round bookkeeping, refreshed by Step and valid until the next one.
	changed         uint64             // lanes where some vertex changed
	counts          [BitsliceLanes]int // per-lane changed-vertex counts
	monoAnd, monoOr uint64             // AND/OR folds of the new state over all vertices
	cycleEq         uint64             // lanes whose new state equals the state two rounds ago
	lostTarget      uint64             // lanes where some vertex left the tracked target color

	detectCycles bool
	prevPrev     []uint64 // state two rounds ago, maintained only when detectCycles

	// Target-spread tracking (driver-configured): targetEnc is the tracked
	// color's one-bit encoding (0 or 1), -1 for a target outside the
	// two-color state space (nothing can ever reach it), or trackOff.
	targetEnc int
	ever      []uint64             // lanes that ever held the target, per vertex
	first     [BitsliceLanes][]int // per-lane FirstReached sinks (nil = untracked)

	// cnt holds bit-sliced vertical counters: plane i carries bit i of every
	// lane's running changed-vertex count for the round in flight.  cntHi is
	// the number of planes touched since the last fold.
	cnt   []uint64
	cntHi int
}

// targetEnc sentinel: no target tracking configured.
const trackOff = -2

// batchSliceable decides whether a batch of lanes replicas may run on the
// bit-sliced tier under the given options.  Cell-level eligibility (colors
// ⊆ {1, 2}) is decided later, by the fill.
func (e *Engine) batchSliceable(lanes int, opt Options) error {
	if lanes == 0 {
		return fmt.Errorf("%w: empty batch", ErrBitsliceIneligible)
	}
	if lanes > BitsliceLanes {
		return fmt.Errorf("%w: %d replicas exceed the %d-lane word", ErrBitsliceIneligible, lanes, BitsliceLanes)
	}
	if opt.Kernel != KernelAuto {
		return fmt.Errorf("%w: kernel forced to %s", ErrBitsliceIneligible, opt.Kernel)
	}
	if opt.Parallel || opt.FullSweep || opt.RecordHistory || len(opt.Observers) > 0 {
		return fmt.Errorf("%w: per-run stepping options requested", ErrBitsliceIneligible)
	}
	if opt.TimeVarying != nil {
		return fmt.Errorf("%w: time-varying runs are pinned to sweep semantics", ErrBitsliceIneligible)
	}
	if sched, noise, err := opt.stochasticParams(); err != nil || sched != nil || noise != nil {
		return fmt.Errorf("%w: stochastic runs are pinned to sweep semantics", ErrBitsliceIneligible)
	}
	if !e.deg4 {
		return fmt.Errorf("%w: substrate %q is not a dense 4-regular index", ErrBitsliceIneligible, e.sub.Name())
	}
	if e.bitRule == nil {
		return fmt.Errorf("%w: rule %q has no word-parallel kernel", ErrBitsliceIneligible, e.rule.Name())
	}
	if _, ok := e.bitRule.BitKernel(2); !ok {
		return fmt.Errorf("%w: rule %q has no kernel for palette {1, 2}", ErrBitsliceIneligible, e.rule.Name())
	}
	return nil
}

// newBitslice allocates a stepper's full working set for the engine.
func (e *Engine) newBitslice() *Bitslice {
	n := e.sub.Dims().N()
	bs := &Bitslice{e: e, plan: e.shiftPlan(), n: n}
	bs.st.Planes = 1
	bs.st.Cur[0] = make([]uint64, n)
	bs.st.Next[0] = make([]uint64, n)
	for p := 0; p < rules.BitPorts; p++ {
		bs.st.Nbr[p][0] = make([]uint64, n)
	}
	bs.prevPrev = make([]uint64, n)
	bs.ever = make([]uint64, n)
	bs.cnt = make([]uint64, bits.Len(uint(n))+1)
	return bs
}

// getSlice returns a pooled stepper.
func (e *Engine) getSlice() *Bitslice {
	if bs := e.slices.get(); bs != nil {
		return bs
	}
	return e.newBitslice()
}

// putSlice returns a stepper to the pool.
func (e *Engine) putSlice(bs *Bitslice) {
	for r := range bs.first {
		bs.first[r] = nil // don't pin result slices between batches
	}
	e.slices.put(bs)
}

// reset fills the lane words of lanes replicas (fill reports whether
// every replica's colors lie in {1, 2}) and rewinds all bookkeeping to
// round zero.
func (bs *Bitslice) reset(lanes int, fill func(words []uint64) bool) error {
	bs.lanes = lanes
	bs.laneMask = ^uint64(0) >> uint(64-bs.lanes)
	bs.active = bs.laneMask
	bs.round = 0
	if !fill(bs.st.Cur[0]) {
		return fmt.Errorf("%w: a replica uses colors outside {1, 2}", ErrBitsliceIneligible)
	}
	// The two-color kernel is exact for every configuration over {1, 2},
	// including all-1 replicas, so the ensemble always steps through it.
	kern, ok := bs.e.bitRule.BitKernel(2)
	if !ok {
		return fmt.Errorf("%w: rule %q has no kernel for palette {1, 2}", ErrBitsliceIneligible, bs.e.rule.Name())
	}
	bs.kern = kern
	copy(bs.prevPrev, bs.st.Cur[0])
	bs.detectCycles = false
	bs.counting = false
	bs.targetEnc = trackOff
	bs.counts = [BitsliceLanes]int{}
	bs.changed, bs.monoAnd, bs.monoOr, bs.cycleEq, bs.lostTarget = 0, 0, 0, 0, 0
	for i := range bs.cnt {
		bs.cnt[i] = 0
	}
	bs.cntHi = 0
	for r := range bs.first {
		bs.first[r] = nil
	}
	return nil
}

// Freeze removes the masked lanes from the update: their bits keep their
// current state through every later Step while the remaining lanes run.
func (bs *Bitslice) Freeze(mask uint64) { bs.active &^= mask }

// Monochromatic reports whether lane r's configuration was monochromatic
// after the last Step.
func (bs *Bitslice) Monochromatic(r int) bool {
	return (bs.monoAnd|^bs.monoOr)>>uint(r)&1 == 1
}

// Cycle reports whether lane r's configuration after the last Step equals
// its configuration two rounds earlier (a period-2 limit cycle; meaningful
// only under DetectCycles, and subsumed by a fixed point when the lane did
// not change).
func (bs *Bitslice) Cycle(r int) bool { return bs.cycleEq>>uint(r)&1 == 1 }

// setTarget configures target-spread tracking: enc outside the one-bit
// state space tracks nothing (the target can never be reached), matching
// the scalar tiers' zero target masks.  The ever-held seed is derived from
// the packed round-0 state, so call it after reset and before stepping.
func (bs *Bitslice) setTarget(target color.Color) {
	enc := int(target) - 1
	if enc != 0 && enc != 1 {
		enc = -1
	}
	bs.targetEnc = enc
	cur := bs.st.Cur[0]
	for v := range cur {
		t := uint64(0)
		switch enc {
		case 1:
			t = cur[v]
		case 0:
			t = ^cur[v]
		}
		bs.ever[v] = t & bs.laneMask
	}
}

// Step advances every active lane one synchronous round: gather the four
// neighbor words per vertex (by the shift plan on a torus, else through
// the CSR forward index), apply the carry-save kernel to all lanes at
// once, freeze inactive lanes back to their prior state, and refresh the
// per-lane bookkeeping (changed lanes, change counts when counting,
// monochromatic/cycle folds, target spread).  It allocates nothing.
func (bs *Bitslice) Step() {
	bs.round++
	n := bs.n
	cur, next := bs.st.Cur[0], bs.st.Next[0]
	if bs.plan != nil {
		// Port p's neighbor words are cur rotated by the port's shift,
		// then its border patches.
		for p := range bs.plan.Ports {
			port := &bs.plan.Ports[p]
			nbr := bs.st.Nbr[p][0]
			copy(nbr, cur[port.Shift:])
			copy(nbr[n-port.Shift:], cur[:port.Shift])
			for i, dst := range port.FixDst {
				nbr[dst] = cur[port.FixSrc[i]]
			}
		}
	} else {
		n0, n1, n2, n3 := bs.st.Nbr[0][0], bs.st.Nbr[1][0], bs.st.Nbr[2][0], bs.st.Nbr[3][0]
		fwd := bs.e.csr.Neighbors
		_ = fwd[grid.Degree*n-1]
		for v := 0; v < n; v++ {
			b := grid.Degree * v
			n0[v] = cur[fwd[b]]
			n1[v] = cur[fwd[b+1]]
			n2[v] = cur[fwd[b+2]]
			n3[v] = cur[fwd[b+3]]
		}
	}
	bs.kern.StepWords(&bs.st, 0, n)

	act, lm := bs.active, bs.laneMask
	var changed uint64
	monoAnd, monoOr := ^uint64(0), uint64(0)
	cycleEq := ^uint64(0)
	var lost uint64
	pp := bs.prevPrev
	dc := bs.detectCycles
	counting := bs.counting
	enc := bs.targetEnc
	for v := 0; v < n; v++ {
		cv := cur[v]
		nx := next[v]&act | cv&^act
		next[v] = nx
		d := cv ^ nx
		changed |= d
		if counting && d != 0 {
			bs.countAdd(d)
		}
		monoAnd &= nx
		monoOr |= nx
		if dc {
			cycleEq &= ^(nx ^ pp[v])
			pp[v] = cv
		}
		if enc >= 0 {
			told, tnew := cv, nx
			if enc == 0 {
				told, tnew = ^cv, ^nx
			}
			told &= lm
			tnew &= lm
			lost |= told &^ tnew
			if newly := tnew &^ bs.ever[v]; newly != 0 {
				bs.ever[v] |= newly
				for m := newly; m != 0; m &= m - 1 {
					if fr := bs.first[bits.TrailingZeros64(m)]; fr != nil {
						fr[v] = bs.round
					}
				}
			}
		}
	}
	bs.changed = changed
	bs.monoAnd, bs.monoOr = monoAnd, monoOr
	bs.cycleEq = cycleEq
	bs.lostTarget = lost
	bs.foldCounts(act)
	bs.st.Cur[0], bs.st.Next[0] = next, cur
}

// foldCounts moves the vertical counters of the lanes in mask into counts
// and clears the counters.
func (bs *Bitslice) foldCounts(mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		r := bits.TrailingZeros64(m)
		c := 0
		for i := 0; i < bs.cntHi; i++ {
			c |= int(bs.cnt[i]>>uint(r)&1) << uint(i)
		}
		bs.counts[r] = c
	}
	for i := 0; i < bs.cntHi; i++ {
		bs.cnt[i] = 0
	}
	bs.cntHi = 0
}

// countAdd carry-saves one diff word into the vertical per-lane counters.
func (bs *Bitslice) countAdd(d uint64) {
	for i := 0; ; i++ {
		t := bs.cnt[i]
		bs.cnt[i] = t ^ d
		d &= t
		if i >= bs.cntHi {
			bs.cntHi = i + 1
		}
		if d == 0 {
			return
		}
	}
}

// Unpack extracts lane r's current configuration into dst (allocated when
// nil) and returns it.
func (bs *Bitslice) Unpack(r int, dst *color.Coloring) *color.Coloring {
	if dst == nil {
		dst = color.NewColoring(bs.e.sub.Dims(), color.None)
	}
	color.UnpackLane(bs.st.Cur[0], r, dst)
	return dst
}

// unpackPrev extracts lane r's configuration before the last Step (the
// swapped-out buffer), the per-lane equivalent of a driver's prevConfig.
func (bs *Bitslice) unpackPrev(r int) *color.Coloring {
	prev := color.NewColoring(bs.e.sub.Dims(), color.None)
	color.UnpackLane(bs.st.Next[0], r, prev)
	return prev
}

// laneStop is why a lane stopped in the round just stepped; laneRunning
// means it keeps stepping.
type laneStop uint8

const (
	laneRunning laneStop = iota
	laneFixedPoint
	laneMonochromatic
	laneCycle
	laneBudget
)

// startSliced checks that a batch of lanes replicas may run on the
// bit-sliced tier and returns a pooled stepper holding the words fill
// wrote, configured for the options' cycle detection and target tracking.
// The caller returns it with putSlice.  Ineligible batches return an error
// wrapping ErrBitsliceIneligible.
func (e *Engine) startSliced(lanes int, fill func(words []uint64) bool, opt Options) (*Bitslice, error) {
	if err := e.batchSliceable(lanes, opt); err != nil {
		return nil, err
	}
	bs := e.getSlice()
	if err := bs.reset(lanes, fill); err != nil {
		e.putSlice(bs)
		return nil, err
	}
	bs.detectCycles = opt.DetectCycles
	if opt.Target != color.None {
		bs.setTarget(opt.Target)
	}
	return bs, nil
}

// run is the tier's one stepping loop: it steps every active lane a round
// at a time until each has stopped, with the stop conditions and their
// precedence replicating drive's.  After each round it calls lane(r, stop)
// for every lane that stepped, in lane order, while the stepper still
// holds that round's state; lanes that stopped then freeze.  It returns
// ctx.Err() when the context is canceled between rounds.
func (bs *Bitslice) run(ctx context.Context, opt Options, lane func(r int, stop laneStop)) error {
	maxRounds := opt.MaxRounds
	if maxRounds <= 0 {
		maxRounds = bs.e.sub.DefaultMaxRounds()
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		bs.Step()
		round := bs.round
		var freeze uint64
		for m := bs.active; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			stop := laneRunning
			switch {
			case bs.changed>>uint(r)&1 == 0:
				stop = laneFixedPoint
			case opt.StopWhenMonochromatic && bs.Monochromatic(r):
				stop = laneMonochromatic
			case opt.DetectCycles && bs.Cycle(r):
				stop = laneCycle
			case round == maxRounds:
				stop = laneBudget
			}
			lane(r, stop)
			if stop != laneRunning {
				freeze |= 1 << uint(r)
			}
		}
		bs.Freeze(freeze)
		if bs.active == 0 {
			return nil
		}
	}
}

// RunBatchSliced evolves up to 64 initial colorings to their terminal
// Results in one bit-sliced word stream, byte-identical on the JSON wire
// (and in the checkpoint seed) to running each replica through RunContext
// with the same options.  Only the in-process diagnostics say how the
// lanes ran: Kernel reads KernelBitsliced and Downshift stays 0.  Per-lane
// termination masks let replicas stop on their own round (fixed point,
// monochromatic, cycle or budget) while the rest keep stepping.  Ineligible
// batches (wrong substrate, rule, options or colors) return an error
// wrapping ErrBitsliceIneligible without side effects, so callers can fall
// back to the per-run loop.
//
// When ctx is canceled mid-batch the call returns ctx.Err() together with
// the results of the lanes that already terminated; still-active lanes are
// nil, matching the batch-session contract.
func (e *Engine) RunBatchSliced(ctx context.Context, initials []*color.Coloring, opt Options) ([]*Result, error) {
	d := e.sub.Dims()
	bs, err := e.startSliced(len(initials), func(words []uint64) bool {
		for _, c := range initials {
			if c == nil || c.Dims() != d {
				return false
			}
		}
		return color.PackLanes(initials, words)
	}, opt)
	if err != nil {
		return nil, err
	}
	defer e.putSlice(bs)
	bs.counting = true

	results := make([]*Result, len(initials))
	resBuf := make([]*Result, len(initials))
	for r, init := range initials {
		res := &Result{MonotoneTarget: true, Workers: 1, Kernel: KernelBitsliced}
		initTargetTrace(res, init, opt.Target)
		bs.first[r] = res.FirstReached
		resBuf[r] = res
	}
	err = bs.run(ctx, opt, func(r int, stop laneStop) {
		res := resBuf[r]
		res.Rounds = bs.round
		res.ChangesPerRound = append(res.ChangesPerRound, bs.counts[r])
		if bs.lostTarget>>uint(r)&1 == 1 {
			res.MonotoneTarget = false
		}
		if stop == laneRunning {
			return
		}
		res.FixedPoint = stop == laneFixedPoint
		res.Cycle = stop == laneCycle
		if stop == laneCycle || stop == laneBudget {
			res.prev = bs.unpackPrev(r)
		}
		// Inline finish() on the freshly unpacked final (no extra clone).
		res.Final = bs.Unpack(r, nil)
		res.FinalColor, res.Monochromatic = res.Final.IsMonochromatic()
		if opt.Target == color.None {
			res.MonotoneTarget = false
		}
		results[r] = res
	})
	return results, err
}

// Outcome is a run's terminal verdict without its trajectory: the fields of
// a Result that an ensemble aggregate or a seed search reads, plus the
// number of vertices holding one chosen color at the end.
type Outcome struct {
	Rounds        int
	FixedPoint    bool
	Cycle         bool
	Monochromatic bool
	FinalColor    color.Color
	// Count is the number of vertices of the counted color in the final
	// configuration.
	Count int
}

// Outcome reduces a completed Result to its verdict, counting the vertices
// of color count in Final.
func (r *Result) Outcome(count color.Color) Outcome {
	return Outcome{
		Rounds:        r.Rounds,
		FixedPoint:    r.FixedPoint,
		Cycle:         r.Cycle,
		Monochromatic: r.Monochromatic,
		FinalColor:    r.FinalColor,
		Count:         r.Final.Count(count),
	}
}

// RunBatchOutcomes is RunBatchSliced reduced to each lane's Outcome, over
// lanes replicas whose lane words fill writes (color.PackLanes behind a
// closure, for callers holding colorings): out[r] is written for every lane
// r that stopped and equals the Outcome(count) of RunContext on replica r.
// The lanes step in the same loop, but no configuration is unpacked and
// nothing per round is kept — no change counts and no target trace
// (Options.Target is ignored) — and the final color and count come from
// the packed words.  Eligibility and cancellation follow RunBatchSliced;
// on a canceled batch the entries of lanes still active are left as they
// were.
func (e *Engine) RunBatchOutcomes(ctx context.Context, lanes int, fill func(words []uint64) bool, opt Options, count color.Color, out []Outcome) error {
	opt.Target = color.None
	bs, err := e.startSliced(lanes, fill, opt)
	if err != nil {
		return err
	}
	defer e.putSlice(bs)
	var stopped uint64
	err = bs.run(ctx, opt, func(r int, stop laneStop) {
		if stop == laneRunning {
			return
		}
		o := Outcome{Rounds: bs.round, FixedPoint: stop == laneFixedPoint, Cycle: stop == laneCycle}
		if bs.Monochromatic(r) {
			o.Monochromatic = true
			o.FinalColor = color.Color(1 + bs.monoAnd>>uint(r)&1)
		}
		out[r] = o
		stopped |= 1 << uint(r)
	})
	// A stopped lane's bits keep its final state (Freeze), so one pass of
	// the vertical counters over the words counts the color-2 vertices of
	// every stopped lane at once.  Lanes hold colors 1 and 2 only.
	if stopped != 0 && (count == 1 || count == 2) {
		for _, w := range bs.st.Cur[0] {
			if w &= stopped; w != 0 {
				bs.countAdd(w)
			}
		}
		bs.foldCounts(stopped)
		for m := stopped; m != 0; m &= m - 1 {
			r := bits.TrailingZeros64(m)
			out[r].Count = bs.counts[r]
			if count == 1 {
				out[r].Count = bs.n - bs.counts[r]
			}
		}
	}
	return err
}
