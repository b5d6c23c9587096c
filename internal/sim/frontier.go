package sim

import (
	"fmt"

	"repro/internal/color"
)

// Frontier is the dirty-frontier stepper: the allocation-free core that
// makes late-convergence rounds cheap.  A synchronous rule is local, so a
// vertex can change color in round t+1 only if its own color or a neighbor's
// color changed in round t; everything else is guaranteed to repeat its
// previous output.  The stepper therefore keeps the configuration in a
// single buffer updated in place through a per-round change journal, and
// re-evaluates in round t+1 exactly the vertices v with
//
//	v ∈ changed(t) ∪ { u : N(u) ∩ changed(t) ≠ ∅ }
//
// where the readers of a changed vertex are its own CSR row: the
// substrate's neighbor relation is symmetric (see Substrate), so the
// vertices that read v are exactly the vertices v reads.  Round 1 evaluates
// every vertex (nothing is known about the initial configuration).  The
// journal also powers incremental bookkeeping that would otherwise cost
// O(n) per round: a color histogram for the monochromatic stop condition and
// a last-change trace for period-2 cycle detection, so a whole run does no
// full-lattice work after setup.
//
// Results are bit-identical to the full-sweep steppers: evaluation reads
// only pre-round state (changes are journaled and applied after the scan),
// and the paper's rules are pure functions of the neighborhood.
//
// Every run enters the frontier one way, seedFromCheckpoint, from the
// state it continues: the round-0 state of a fresh run (Reset), a resumed
// run's checkpoint, or the last two configurations of a bitplane run that
// downshifts.  The previous configuration, when the state has one, rebuilds
// the last round's change journal.
//
// A Frontier is single-goroutine state.  All of its buffers are allocated at
// construction and recycled by every seed, so steady-state Step calls
// perform zero heap allocations (pinned by TestFrontierStepDoesNotAllocate);
// engines pool Frontier values across runs, which extends the guarantee
// across dynmon Session batches.
type Frontier struct {
	e   *Engine
	cfg *color.Coloring
	// epoch[v] is the round for which v was last scheduled; the queue for
	// round r holds each vertex at most once, marked epoch[v] == r.
	epoch []int32
	// queue holds the vertices to evaluate this round; nextQueue is built
	// from the change journal while the round is applied.
	queue, nextQueue []int32
	// chV/chOld/chNew journal the vertices that changed in the last Step,
	// with their colors before and after.
	chV   []int32
	chOld []color.Color
	chNew []color.Color
	// lastRound[v] is the last round in which v changed, lastOld[v] its
	// color just before that change; together they detect period-2 cycles
	// without comparing whole configurations.
	lastRound []int32
	lastOld   []color.Color
	// hist[c] counts vertices of color c; nonzero counts colors present.
	hist    []int
	nonzero int
	// prevChanged is the journal size of the previous round, cycle whether
	// the last Step exactly undid the round before it.
	prevChanged int
	cycle       bool
	round       int
	// scratch backs the gathered row of the engine's rule application (see
	// Engine.next); it lives here so Step stays allocation-free.
	scratch []color.Color
}

// newFrontier allocates a frontier with a blank configuration; callers must
// Reset before stepping.  Engines recycle frontiers through their run-state
// pool, so this runs once per pooled state, not once per run.
func newFrontier(e *Engine) *Frontier {
	n := e.sub.Dims().N()
	return &Frontier{
		e:         e,
		cfg:       color.NewColoring(e.sub.Dims(), color.None),
		epoch:     make([]int32, n),
		queue:     make([]int32, 0, n),
		nextQueue: make([]int32, 0, n),
		chV:       make([]int32, 0, n),
		chOld:     make([]color.Color, 0, n),
		chNew:     make([]color.Color, 0, n),
		lastRound: make([]int32, n),
		lastOld:   make([]color.Color, n),
		scratch:   make([]color.Color, 0, e.maxDeg),
	}
}

// NewFrontier returns a frontier stepper over the engine's topology and
// rule, initialized to the given configuration.  It is the public entry
// point for benchmarks and callers that want to drive rounds by hand; Run
// uses a pooled frontier internally.
func (e *Engine) NewFrontier(initial *color.Coloring) *Frontier {
	f := newFrontier(e)
	f.Reset(initial)
	return f
}

// Reset rewinds the frontier to round 0 on a new initial configuration,
// reusing every buffer: the round-0 seed of seedFromCheckpoint.  The
// configuration is copied; the argument is not retained.
func (f *Frontier) Reset(initial *color.Coloring) { f.seedFromCheckpoint(initial, nil, 0) }

// clearTrace rewinds every piece of per-run bookkeeping — epoch marks,
// period-2 trace, change journal, cycle state — and rebuilds the color
// histogram from the current configuration.  seedFromCheckpoint then
// writes what its seed state knows about the last round.
func (f *Frontier) clearTrace() {
	f.prevChanged = 0
	f.cycle = false
	for i := range f.epoch {
		f.epoch[i] = 0
	}
	for i := range f.lastRound {
		f.lastRound[i] = -1
	}
	f.chV, f.chOld, f.chNew = f.chV[:0], f.chOld[:0], f.chNew[:0]
	for i := range f.hist {
		f.hist[i] = 0
	}
	f.nonzero = 0
	for _, c := range f.cfg.Cells() {
		f.histInc(c)
	}
}

// scheduleAll queues every vertex for round f.round+1 — the "nothing is
// known about the last round" schedule of round 0 and of prev-less seeds.
func (f *Frontier) scheduleAll() {
	mark := int32(f.round) + 1
	f.queue = f.queue[:0]
	for v := 0; v < f.cfg.N(); v++ {
		f.queue = append(f.queue, int32(v))
		f.epoch[v] = mark
	}
}

func (f *Frontier) histInc(c color.Color) {
	i := int(c)
	for i >= len(f.hist) {
		// Grows only when a color larger than any seen before appears
		// (possible under the increment rule); steady state never grows.
		f.hist = append(f.hist, 0)
	}
	f.hist[i]++
	if f.hist[i] == 1 {
		f.nonzero++
	}
}

func (f *Frontier) histDec(c color.Color) {
	f.hist[int(c)]--
	if f.hist[int(c)] == 0 {
		f.nonzero--
	}
}

// Monochromatic reports whether the current configuration is monochromatic,
// maintained incrementally from the change journal in O(changes) per round.
func (f *Frontier) Monochromatic() bool { return f.nonzero == 1 }

// Cycle reports whether the last Step exactly undid the one before it, i.e.
// the configuration equals the one two rounds ago — the period-2 oscillation
// the reversible majority rules can enter.  Like Monochromatic it is
// maintained from the journals alone: round r is a cycle iff its journal has
// the same size as round r-1's and every entry flips a vertex straight back
// (lastRound[v] == r-1 and lastOld[v] == the new color).
func (f *Frontier) Cycle() bool { return f.cycle }

// Step applies one synchronous round to the dirty frontier and returns the
// number of vertices that changed color.  Zero means the configuration is a
// fixed point (and the frontier is empty, so further Steps are O(1)).
func (f *Frontier) Step() int {
	f.round++
	r := int32(f.round)
	cells := f.cfg.Cells()
	tab := f.e.table()

	// Evaluate the frontier against pre-round state, journaling changes.
	f.chV, f.chOld, f.chNew = f.chV[:0], f.chOld[:0], f.chNew[:0]
	for _, v := range f.queue {
		cur := cells[v]
		if nc := f.e.next(tab, cells, int(v), &f.scratch); nc != cur {
			f.chV = append(f.chV, v)
			f.chOld = append(f.chOld, cur)
			f.chNew = append(f.chNew, nc)
		}
	}

	// Apply the journal: commit colors, maintain the histogram and the
	// period-2 trace.
	cycle := len(f.chV) > 0 && len(f.chV) == f.prevChanged
	for i, v := range f.chV {
		old, nc := f.chOld[i], f.chNew[i]
		if cycle && !(f.lastRound[v] == r-1 && f.lastOld[v] == nc) {
			cycle = false
		}
		cells[v] = nc
		f.histDec(old)
		f.histInc(nc)
		f.lastRound[v] = r
		f.lastOld[v] = old
	}
	f.cycle = cycle
	f.prevChanged = len(f.chV)

	// Schedule round r+1: the changed vertices and everyone who reads them.
	f.nextQueue = f.nextQueue[:0]
	for _, v := range f.chV {
		f.nextQueue = f.schedule(f.nextQueue, v, r+1)
	}
	f.queue, f.nextQueue = f.nextQueue, f.queue
	return len(f.chV)
}

// schedule appends v and every vertex that reads it — v's own CSR row, by
// symmetry — to q for the round marked mark, skipping vertices already
// marked for it.
func (f *Frontier) schedule(q []int32, v, mark int32) []int32 {
	if f.epoch[v] != mark {
		f.epoch[v] = mark
		q = append(q, v)
	}
	for _, u := range f.e.csr.Neighbors[f.e.csr.Off[v]:f.e.csr.Off[v+1]] {
		if f.epoch[u] != mark {
			f.epoch[u] = mark
			q = append(q, u)
		}
	}
	return q
}

// seedFromCheckpoint rewinds the frontier onto a run's state: the
// configuration at the end of round `round` plus, when known, the
// configuration one round earlier.  It is the frontier's one entry, for
// runs from round 0 (Reset), resumed runs and the bitplane's downshift.
// Diffing the two configurations reconstructs exactly the change journal
// of round `round` — the vertices that changed, with their colors before
// and after — which seeds the period-2 trace, the previous change count
// and the dirty queue for round round+1 precisely as Step would have left
// them, so the resumed run is bit-identical to an uninterrupted one.  With
// prev == nil the journal is unknown: the next round re-evaluates every
// vertex (a sound superset — untouched vertices reproduce their colors)
// and, after round 0, cycle detection restarts, so a period-2 oscillation
// spanning the checkpoint boundary is detected two rounds later than an
// uninterrupted run would have.
func (f *Frontier) seedFromCheckpoint(cfg, prev *color.Coloring, round int) {
	if cfg.Dims() != f.cfg.Dims() {
		panic(fmt.Sprintf("sim: Frontier seed dimension mismatch %v vs %v", cfg.Dims(), f.cfg.Dims()))
	}
	f.cfg.CopyFrom(cfg)
	f.round = round
	f.clearTrace()
	if prev == nil {
		f.scheduleAll()
		return
	}

	r := int32(round)
	f.queue = f.queue[:0]
	cells := f.cfg.Cells()
	for v, old := range prev.Cells() {
		if nc := cells[v]; old != nc {
			f.chV = append(f.chV, int32(v))
			f.chOld = append(f.chOld, old)
			f.chNew = append(f.chNew, nc)
			f.lastRound[v] = r
			f.lastOld[v] = old
			f.queue = f.schedule(f.queue, int32(v), r+1)
		}
	}
	f.prevChanged = len(f.chV)
}
