// Package sim contains the synchronous simulation engine that evolves a
// colored substrate — one of the paper's three tori, or any general graph
// exposed through the Substrate seam — under a local recoloring rule.
//
// The engine follows the paper's execution model (Section III.D): the system
// is synchronous, every vertex reads its neighbors' colors at time t and all
// vertices apply the rule simultaneously to produce the configuration at
// time t+1.  Four stepping tiers produce bit-identical results:
//
//   - the sequential full sweep, the oracle every other path is tested
//     against;
//   - the striped parallel sweep (double-buffered, one contiguous stripe per
//     worker, executed on a persistent process-wide worker pool), the same
//     loop as the sequential sweep with more than one stripe; each stripe
//     also records its own range's target trace and period-2 comparison,
//     so no serial pass over the lattice follows a parallel round;
//   - the dirty-frontier stepper (see Frontier), which re-evaluates only the
//     vertices whose neighborhood changed in the previous round — the
//     low-churn specialist;
//   - the bit-sliced bitplane stepper (see Bitplane), which packs the
//     configuration into uint64 bit planes and recolors 64 vertices per
//     word operation — the high-churn specialist, available when the rule,
//     topology and palette qualify.
//
// Options.Kernel forces a tier; the default automatic selection (and the
// mid-run bitplane→frontier downshift) is documented on the Kernel
// constants.
//
// The synchronous execution model is itself a seam: Options.Schedule
// selects which vertices fire each round (uniform-async, sequential
// raster, random-sequential, vertex-clock — see ScheduleKind), and
// Options.Noise makes the rule ε-faulty: with probability Eps an
// application misfires and the vertex takes a color drawn uniformly from
// the whole palette.  Both draw every random bit from counter-based hashes
// (internal/rng.Hash) of the seed, the round and the vertex — never from
// stateful generators — so stochastic runs are pure functions of their
// Options: bit-identical across kernels, worker counts and
// checkpoint/resume.  Synchronous noisy runs take the bitplane tier when it
// qualifies (word-parallel fault masks, see Bitplane); every other
// stochastic run steps on the scalar sweep, and forcing the frontier
// kernel — or the bitplane kernel under a schedule — is rejected with
// ErrStochasticSweepOnly.
//
// The engine supports fixed-point and period-2-cycle detection,
// monotonicity tracking with respect to a target color, per-vertex
// recoloring-time traces (the data behind the paper's Figures 5 and 6),
// and a time-varying run mode (Options.TimeVarying) that masks link
// availability per round, the extension the paper's conclusions call for.
package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// ErrTimeVaryingSweepOnly is the error (wrapped) returned by time-varying
// runs that force the frontier or bitplane kernel.  Both tiers assume a
// vertex can only change when a neighbor's color changed in the previous
// round; under link churn a vertex's reduced neighborhood — and therefore
// its next color — can change with no color changing anywhere, so the
// incremental tiers would skip vertices that must be re-evaluated
// (demonstrated by TestTimeVaryingFrontierWouldBeUnsound).  Time-varying
// runs always sweep every vertex every round.
var ErrTimeVaryingSweepOnly = errors.New("sim: time-varying runs require full-sweep semantics")

// Kernel identifies a stepping tier of the engine.
type Kernel int

const (
	// KernelAuto lets the engine pick: the bitplane kernel when the rule,
	// topology and coloring qualify (and the run needs no per-round scalar
	// views), the striped parallel sweep for parallel runs, the sequential
	// sweep when FullSweep is set, and the dirty frontier otherwise.
	// Auto-selected sequential bitplane runs may additionally downshift to
	// the frontier mid-run once the change rate gets low (recorded on
	// Result.Downshift, which like Result.Kernel stays off the JSON wire);
	// noisy runs never do.  Stochastic runs that the bitplane kernel does
	// not take step on the sequential or striped sweep.
	KernelAuto Kernel = iota
	// KernelBitplane forces the word-parallel bit-sliced stepper.  Runs
	// error (wrapping ErrBitplaneIneligible) when the combination does not
	// qualify.
	KernelBitplane
	// KernelFrontier forces the sequential dirty-frontier stepper.
	KernelFrontier
	// KernelSweep forces the sequential full-sweep oracle stepper, which
	// applies the rule through its counts or slice form: the oracle never
	// reads the rule table the other scalar tiers look colors up in.
	KernelSweep
	// KernelParallel forces the striped parallel sweep (Workers goroutines,
	// GOMAXPROCS when unset).
	KernelParallel
	// KernelBitsliced is reported by the lanes of a bit-sliced ensemble
	// batch (Engine.RunBatchSliced), which steps 64 replicas per word.  A
	// single run cannot force it, so ParseKernel rejects its name.
	KernelBitsliced
)

// String returns the tier name used in logs and experiment tables.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelBitplane:
		return "bitplane"
	case KernelFrontier:
		return "frontier"
	case KernelSweep:
		return "sweep"
	case KernelParallel:
		return "parallel"
	case KernelBitsliced:
		return "bitsliced"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel resolves the name of a tier a run can force ("auto",
// "bitplane", "frontier", "sweep", "parallel"; "" means auto) to its
// Kernel, the inverse of String on those tiers.
func ParseKernel(name string) (Kernel, error) {
	switch name {
	case "", "auto":
		return KernelAuto, nil
	case "bitplane":
		return KernelBitplane, nil
	case "frontier":
		return KernelFrontier, nil
	case "sweep":
		return KernelSweep, nil
	case "parallel":
		return KernelParallel, nil
	default:
		return KernelAuto, fmt.Errorf("sim: unknown kernel %q (want auto, bitplane, frontier, sweep or parallel)", name)
	}
}

// Substrate is the minimal seam between an interaction substrate and the
// engine: a vertex layout (grid.Dims) that sizes colorings, a CSR adjacency
// index over a symmetric neighbor relation, a display name for errors and
// tables, and a default round budget.  The three tori satisfy it through
// an internal adapter over grid.Topology (NewEngine); any other substrate —
// internal/graphs.Graph is the shipped example — implements it directly and
// runs through NewEngineOn, inheriting the frontier, parallel-stripe and
// pooled-buffer tiers for free.  The bitplane tier additionally requires a
// shift-regular torus and stays behind the existing ErrBitplaneIneligible
// probing.
//
// Implementations must be immutable for the lifetime of the engines built
// over them: the engine calls CSR() once, at construction, and keeps the
// index.
type Substrate interface {
	// Dims returns the vertex layout colorings must carry.  Torus substrates
	// use their lattice dimensions; substrates without a lattice use the
	// degenerate 1×n layout (see grid.BuildCSRAdj).
	Dims() grid.Dims
	// Name identifies the substrate in errors and experiment tables.
	Name() string
	// CSR returns the adjacency index the engine iterates over.  Its
	// neighbor relation must be symmetric: the frontier schedules the
	// readers of a changed vertex from that vertex's own row.
	CSR() *grid.CSR
	// DefaultMaxRounds returns the round budget used when Options.MaxRounds
	// is zero, generous enough that non-convergence within it means "does
	// not converge", not "budget too small".
	DefaultMaxRounds() int
}

// torusSubstrate adapts a grid.Topology to the Substrate seam.  CSR builds
// a fresh index on every call; NewEngineOn calls it once per engine.
type torusSubstrate struct{ topo grid.Topology }

func (s torusSubstrate) Dims() grid.Dims       { return s.topo.Dims() }
func (s torusSubstrate) Name() string          { return s.topo.Name() }
func (s torusSubstrate) CSR() *grid.CSR        { return grid.BuildCSR(s.topo) }
func (s torusSubstrate) DefaultMaxRounds() int { return DefaultMaxRounds(s.topo.Dims()) }

// Availability decides which links are usable in a given round; it is the
// contract behind Options.TimeVarying.  It must be deterministic in
// (round, u, v) so that runs are reproducible; the engine always passes the
// endpoints with u < v, so implementations need not re-normalize.  The
// availability models of internal/tvg implement it.
type Availability interface {
	// Available reports whether the link {u, v} can carry information
	// during the given round (1-based).
	Available(round, u, v int) bool
}

// staticAvailability reports whether the model declares itself equivalent
// to a fully available static network (via an optional Static() method, as
// the internal/tvg models provide).  Only then may the engine treat a
// zero-change round as a fixed point: on an intermittent network the
// configuration can change again when links return.
func staticAvailability(a Availability) bool {
	s, ok := a.(interface{ Static() bool })
	return ok && s.Static()
}

// Options controls a simulation run.
type Options struct {
	// MaxRounds bounds the number of synchronous rounds.  Zero selects
	// DefaultMaxRounds for the topology.
	MaxRounds int
	// Parallel enables the striped parallel stepper.
	Parallel bool
	// Workers is the number of goroutines used when Parallel is set; zero
	// selects runtime.GOMAXPROCS(0).
	Workers int
	// FullSweep forces the sequential full-sweep oracle stepper instead of
	// the dirty-frontier stepper.  Results are bit-identical either way; the
	// knob exists for differential tests and for measuring the frontier's
	// speedup.  Like KernelSweep it keeps the run off the engine's rule
	// table, on a parallel run too, which sweeps either way.
	FullSweep bool
	// Kernel selects the stepping tier explicitly; the KernelAuto zero value
	// keeps the automatic selection described on the constants.  A forced
	// tier overrides Parallel and FullSweep (KernelParallel still honors
	// Workers).  All tiers are bit-identical; the knob exists for
	// differential tests, benchmarks and callers that know their workload.
	Kernel Kernel
	// TimeVarying, when non-nil, masks link availability per round: every
	// round r each vertex reads only the neighbors u whose link is
	// Available(r, min(v,u), max(v,u)), and applies the rule to that reduced
	// multiset when at least two neighbors are reachable (with fewer it
	// keeps its color — an SMP-style vertex cannot form a majority from a
	// single opinion).  Time-varying runs always use full-sweep semantics:
	// the dirty frontier and the bitplane tier are unsound here, because a
	// vertex's input can change through link churn alone, without any
	// neighbor changing color (see ErrTimeVaryingSweepOnly).  A round that
	// changes nothing is a fixed point only when the model declares itself
	// static; otherwise the run continues, since returning links can wake
	// the dynamics again — and for the same reason DetectCycles is inert
	// under a non-static model (a configuration repeating two rounds apart
	// under churny link draws is not a cycle).
	TimeVarying Availability
	// Schedule, when non-nil with a non-synchronous Kind, replaces the
	// synchronous update discipline (see ScheduleKind).  Stochastic runs are
	// pinned to sweep semantics: forcing an incremental kernel errors
	// (wrapping ErrStochasticSweepOnly), the sequential kinds
	// additionally pin the run to one worker, and a zero-change round is a
	// fixed point only when every vertex was guaranteed a turn (the
	// sequential kinds, or a degenerate mask that activates everyone).
	// Combining a stochastic schedule with TimeVarying is not supported.
	Schedule *Schedule
	// Noise, when non-nil with Eps > 0, makes every rule application ε-faulty
	// (see Noise).  Noisy runs never stop on a fixed point or a cycle — a
	// fault can reignite the dynamics at any round.  A synchronous noisy run
	// takes the bitplane tier (forced, or automatically under the conditions
	// of a deterministic run) when the rule, topology and the palette of the
	// initial coloring and Noise.Colors qualify, with no frontier downshift;
	// otherwise it follows Schedule's sweep-only kernel gating.
	Noise *Noise
	// Target, when non-zero, is the color whose spread is tracked: the
	// engine records per-vertex first-reach times and whether the
	// target-colored set evolved monotonically.
	Target color.Color
	// StopWhenMonochromatic stops the run as soon as every vertex has the
	// same color (the dynamo success condition).
	StopWhenMonochromatic bool
	// DetectCycles stops the run when a period-2 oscillation is detected
	// (possible under the reversible majority baselines, never under a
	// monotone dynamo).
	DetectCycles bool
	// RecordHistory keeps a copy of the configuration after every round.
	RecordHistory bool
	// Observers are notified after every round (OnRound) and when the run
	// stops on its own (OnFinish); see the Observer documentation for the
	// exact contract.
	Observers []Observer
}

// maxWorkers caps the stripes of a parallel round.  Uncapped, 2²⁰ workers
// split each round of a 1024×1024 mesh into 2²⁰ one-vertex pool tasks, 8×
// the time and 2.3× the peak RSS of two workers (2-core Intel Xeon).
const maxWorkers = 256

// EffectiveWorkers returns the number of stepping goroutines a run with
// these options actually uses on a torus of n vertices:
//
//   - 1 when Parallel is unset (the sequential path ignores Workers);
//   - otherwise Workers (or runtime.GOMAXPROCS(0) when Workers <= 0),
//     capped at n so no goroutine gets an empty stripe and at 256
//     (maxWorkers), with a floor of 1.
//
// Run records this value on Result.Workers so callers can see the real
// parallelism rather than the requested one.
func (o Options) EffectiveWorkers(n int) int {
	if !o.Parallel {
		return 1
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(1, min(workers, n, maxWorkers))
}

// DefaultMaxRounds returns a generous round budget for an m×n torus, aligned
// with the paper's convergence bounds: Theorem 7 converges the toroidal mesh
// in O(max(m,n)) rounds and Theorem 8 the spiral tori in at most ~m·n/2
// rounds (the wave crosses the single spiral), so
//
//	m·n + 2·(m+n) + 16
//
// dominates every predicted convergence time with at least 2× slack.
// Non-convergence within the budget therefore means "not a dynamo", never
// "budget too small".
func DefaultMaxRounds(d grid.Dims) int { return d.N() + 2*(d.Rows+d.Cols) + 16 }

// Result describes a finished simulation run.  The JSON field tags are a
// stable wire contract: reports built over results are served directly, with
// no second DTO layer (colorings marshal as {rows, cols, cells} objects).
// The wire says what happened, never how it ran: Workers, Kernel and
// Downshift are in-process diagnostics, so equal runs marshal to equal
// bytes on any host, worker count and tier.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int `json:"rounds"`
	// Workers is the effective number of stepping goroutines used: 1 on
	// the sequential path, Options.EffectiveWorkers on the parallel path.
	Workers int `json:"-"`
	// Kernel is the stepping tier that executed the run (never KernelAuto).
	// A hybrid auto run that started on the bitplane kernel and downshifted
	// reports KernelBitplane with the switch round in Downshift.
	Kernel Kernel `json:"-"`
	// Downshift is the round at which an auto-tier bitplane run handed the
	// remaining rounds to the dirty-frontier stepper, or 0 when it never
	// did.  The handoff is exact: the result is bit-identical either way.
	Downshift int `json:"-"`
	// FixedPoint reports that the last round changed no vertex.
	FixedPoint bool `json:"fixed_point"`
	// Cycle reports that a period-2 oscillation was detected.
	Cycle bool `json:"cycle"`
	// Monochromatic reports that the final configuration is monochromatic,
	// and FinalColor carries its color.
	Monochromatic bool        `json:"monochromatic"`
	FinalColor    color.Color `json:"final_color"`
	// MonotoneTarget reports that the set of Target-colored vertices never
	// lost a vertex during the run (Definition 3).  It is meaningful only
	// when Options.Target was set.
	MonotoneTarget bool `json:"monotone_target"`
	// FirstReached[v] is the first round (0 = initially) at which vertex v
	// carried the Target color, or -1 if it never did.  Nil when
	// Options.Target was not set.
	FirstReached []int `json:"first_reached,omitempty"`
	// ChangesPerRound[i] is the number of vertices that changed color in
	// round i+1.
	ChangesPerRound []int `json:"changes_per_round,omitempty"`
	// Final is the configuration at the end of the run.
	Final *color.Coloring `json:"final,omitempty"`
	// History holds the configuration after every round when
	// Options.RecordHistory was set (History[0] is the state after round 1).
	History []*color.Coloring `json:"history,omitempty"`

	// prev is the configuration one round before Final, snapshotted so
	// ResumeState can emit a checkpoint (with its cycle-detector seed) from
	// a finished or aborted result.  Not serialized: the public checkpoint
	// format lives in the dynmon package.
	prev *color.Coloring
}

// TimesMatrix lays the FirstReached trace out as a row-major matrix, the
// form used by the paper's Figures 5 and 6.  Vertices that never reached the
// target are -1.
func (r *Result) TimesMatrix(d grid.Dims) [][]int {
	out := make([][]int, d.Rows)
	for i := range out {
		row := make([]int, d.Cols)
		for j := range row {
			if r.FirstReached == nil {
				row[j] = -1
			} else {
				row[j] = r.FirstReached[d.IndexRC(i, j)]
			}
		}
		out[i] = row
	}
	return out
}

// Engine evolves colorings over a fixed substrate under a fixed rule.  Its
// configuration is immutable after construction and an Engine is safe for
// concurrent use by multiple goroutines running independent simulations; the
// only mutable state is the lazily built shift plan and rule table and the
// free lists of per-run working buffers, which is what makes repeated runs
// (and Session batches in the public dynmon package) allocation-free in
// steady state.
//
// An engine owns its adjacency index and shift plan; nothing caches them
// process-wide.  Callers that run many colorings over one system hold one
// engine: dynmon.System, dynserve's system cache, graphs.View.EngineFor and
// the search loops all do.
type Engine struct {
	// sub is the substrate seam the engine steps over.
	sub Substrate
	// topo is the torus view of the substrate, nil for non-torus substrates;
	// it gates the bitplane tier, which needs a torus's shift plan.
	topo grid.Topology
	rule rules.Rule
	// countRule is the rule's counts-based fast path, nil when the rule does
	// not implement rules.CountRule.  Detected once here so the inner loops
	// pay no per-vertex type assertions.
	countRule rules.CountRule
	// bitRule is the rule's word-parallel form, nil when the rule does not
	// implement rules.BitRule; with a shift-regular topology and a ≤4-color
	// palette it enables the bitplane tier.
	bitRule rules.BitRule
	// csr is the substrate's CSR adjacency index, taken once at
	// construction: csr.Neighbors frames each vertex's neighbors, which by
	// symmetry are also the vertices that must be re-evaluated when it
	// changes.
	csr *grid.CSR
	// plan is the torus's shift decomposition (nil when it is not
	// shift-regular), probed once under planOnce by shiftPlan, for the
	// bitplane tier and the bit-sliced gather.
	planOnce sync.Once
	plan     *grid.ShiftPlan
	// tab is the rule tabulated over degree-4 neighborhoods in {1..8}
	// (rules.Tabulate), built once under tabOnce by table on a dense degree-4
	// index; nil elsewhere and when the rule answers outside a byte.
	tabOnce sync.Once
	tab     *rules.Table
	// keys holds rng.Key(v) of every vertex, built once under keysOnce by
	// vertexKeys for the first run that draws per vertex (8 B per vertex).
	keysOnce sync.Once
	keys     []uint64
	// deg4 marks a dense 4-regular index (all tori), which licenses the rule
	// table, next's unrolled degree-4 counts tally and its inlined copy in
	// stepRange; irregular substrates tally their offset-framed CSR rows
	// instead.
	deg4 bool
	// maxDeg sizes the per-run neighbor scratch buffers.
	maxDeg int
	// states and slices recycle per-run state (double buffers, frontier
	// queues) and bit-sliced steppers across runs.  They are free lists,
	// not sync.Pools: the runtime keeps a pool used since the last
	// collection, and the engine around it, alive through the next one.
	states freeList[runState]
	slices freeList[Bitslice]
}

// freeList is a stack of recycled per-run values that grows to the
// engine's peak number of concurrent runs and is freed with the engine.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get pops a recycled value, or returns nil when none is free.
func (l *freeList[T]) get() (v *T) {
	l.mu.Lock()
	if n := len(l.items); n > 0 {
		v, l.items = l.items[n-1], l.items[:n-1]
	}
	l.mu.Unlock()
	return v
}

func (l *freeList[T]) put(v *T) {
	l.mu.Lock()
	l.items = append(l.items, v)
	l.mu.Unlock()
}

// NewEngine builds an engine for the given torus topology and rule: it
// builds the topology's CSR index (grid.BuildCSR, which panics on an
// asymmetric topology) and keeps it for the engine's lifetime.  It is
// NewEngineOn over the topology's substrate adapter.
func NewEngine(topo grid.Topology, rule rules.Rule) *Engine {
	return NewEngineOn(torusSubstrate{topo: topo}, rule)
}

// NewEngineOn builds an engine over an arbitrary substrate — the
// general-graph entry point.  The substrate's CSR index is taken here;
// mutating the underlying graph afterwards does not affect the engine.
func NewEngineOn(sub Substrate, rule rules.Rule) *Engine {
	csr := sub.CSR()
	e := &Engine{
		sub:    sub,
		rule:   rule,
		csr:    csr,
		deg4:   csr.Uniform() == grid.Degree,
		maxDeg: csr.MaxDegree(),
	}
	if ts, ok := sub.(torusSubstrate); ok {
		e.topo = ts.topo
	}
	e.countRule, _ = rule.(rules.CountRule)
	e.bitRule, _ = rule.(rules.BitRule)
	return e
}

// Substrate returns the seam the engine was built over.
func (e *Engine) Substrate() Substrate { return e.sub }

// runState is the recycled working set of one run: the sweep path's double
// buffers and driver, the parallel stripe tasks with their WaitGroup and,
// lazily, the period-2 comparison buffer and the tier steppers (frontier,
// bitplane) — lazy because a run uses exactly one tier and the others' O(n)
// bookkeeping would be allocated for nothing.
type runState struct {
	f *Frontier
	// cur and next are the sweep tier's double buffers, allocated lazily by
	// buffers(): only the sweep drivers touch them.
	cur, next *color.Coloring
	prevPrev  *color.Coloring
	bp        *Bitplane
	// sweep is the sweep tier's driver, kept here so that the stripe tasks
	// can point at it without a per-step allocation.
	sweep     sweepDriver
	wg        sync.WaitGroup
	stripeBuf []stripeTask
	// scratch backs next's slice path in the public Step, sized to the
	// substrate's maximum degree so steady-state stepping allocates nothing;
	// the sweep tier's stripes carry their own (stripeTask.scratch).
	scratch []color.Color
	// order is the sweep-order buffer of ScheduleRandomSequential, refilled
	// with each round's permutation.  It lives here, not on the sweep
	// driver, because the driver is rebuilt on every run.
	order []int
}

// frontier returns the state's frontier stepper, creating it on first use.
func (st *runState) frontier(e *Engine) *Frontier {
	if st.f == nil {
		st.f = newFrontier(e)
	}
	return st.f
}

// buffers returns the sweep tier's double buffers, creating them on first
// use.
func (st *runState) buffers(e *Engine) (cur, next *color.Coloring) {
	if st.cur == nil {
		d := e.sub.Dims()
		st.cur = color.NewColoring(d, color.None)
		st.next = color.NewColoring(d, color.None)
	}
	return st.cur, st.next
}

// stripes returns the pre-allocated task buffer grown to n entries; after
// the first growth, parallel steps reuse it allocation-free.
func (st *runState) stripes(n int) []stripeTask {
	if cap(st.stripeBuf) < n {
		st.stripeBuf = make([]stripeTask, n)
	}
	return st.stripeBuf[:n]
}

func (e *Engine) getState() *runState {
	if st := e.states.get(); st != nil {
		return st
	}
	return &runState{
		scratch: make([]color.Color, 0, e.maxDeg),
	}
}

func (e *Engine) putState(st *runState) { e.states.put(st) }

// table returns the engine's rule table, built on first use, or nil when
// the index is not dense degree-4 or the rule has no byte table.  The
// oracle paths (a forced sequential sweep, FullSweep, Step) never ask.
func (e *Engine) table() *rules.Table {
	if !e.deg4 {
		return nil
	}
	e.tabOnce.Do(func() { e.tab = rules.Tabulate(e.rule) })
	return e.tab
}

// vertexKeys returns the vertices' keys (rng.Key of each index), built on
// first use.  Drivers of runs that draw per vertex fetch them at set-up, so
// stepping never builds them.
func (e *Engine) vertexKeys() []uint64 {
	e.keysOnce.Do(func() {
		e.keys = make([]uint64, e.sub.Dims().N())
		for v := range e.keys {
			e.keys[v] = rng.Key(uint64(v))
		}
	})
	return e.keys
}

// stepRange applies one synchronous round to vertices [lo, hi) reading from
// cur and writing to next, and returns how many of them changed.  With a
// rule table (the engine's, or nil on the oracle paths) each vertex costs a
// range check, an index and one byte load.  The first vertex whose
// neighborhood leaves {1..8} sends itself and the rest of the range to the
// counts loop, and left reports it, so the caller stops passing the table;
// keeping that fallback out of the table loop keeps a call out of the hot
// loop.  Without a table the rule applies through next; scratch backs
// next's slice path (capacity >= the substrate's maximum degree).
//
// The dense degree-4 counts loop is next's counts case copied inline, the
// one such copy: it is the oracle's hot loop on every torus, and routing it
// through next made BenchmarkEngineStepSequential/256x256 8-10% slower in
// the median (2-core Intel Xeon, GOMAXPROCS 2, Go 1.24; two measurements
// of 4 and 5 alternated runs).
func (e *Engine) stepRange(tab *rules.Table, cur, next []color.Color, lo, hi int, scratch []color.Color) (changed int, left bool) {
	fwd := e.csr.Neighbors
	v := lo
	if tab != nil {
		for ; v < hi; v++ {
			nb := fwd[v*grid.Degree : v*grid.Degree+grid.Degree]
			i, ok := rules.TableIndex(cur[v], cur[nb[0]], cur[nb[1]], cur[nb[2]], cur[nb[3]])
			if !ok {
				break
			}
			nc := color.Color(tab[i])
			next[v] = nc
			if nc != cur[v] {
				changed++
			}
		}
		if v == hi {
			return changed, false
		}
		left = true
	}
	if cr := e.countRule; cr != nil && e.deg4 {
		for ; v < hi; v++ {
			base := v * grid.Degree
			var cs rules.Counts
			cs.Add(cur[fwd[base]])
			cs.Add(cur[fwd[base+1]])
			cs.Add(cur[fwd[base+2]])
			cs.Add(cur[fwd[base+3]])
			nc := cr.NextFromCounts(cur[v], cs)
			next[v] = nc
			if nc != cur[v] {
				changed++
			}
		}
		return changed, left
	}
	for ; v < hi; v++ {
		nc := e.next(nil, cur, v, &scratch)
		next[v] = nc
		if nc != cur[v] {
			changed++
		}
	}
	return changed, left
}

// next is the engine's one rule application: the color v takes when the
// rule reads its neighbors' colors in cells.  With a rule table (tab, the
// engine's or nil) and all five colors in {1..8}, it is one byte load.
// Otherwise a rule with a counts form (rules.CountRule) gets v's
// neighborhood tallied, unrolled on a dense degree-4 index and through
// Counts.AddOK over v's CSR row otherwise; this counts path is the
// oracle's, and the table's fallback.  A rule without a counts form, or a
// row whose multiset does not fit a Counts vector, takes the rule's slice
// path over the neighbors gathered into *scratch, which grows in place so
// the caller's next vertex reuses it.
func (e *Engine) next(tab *rules.Table, cells []color.Color, v int, scratch *[]color.Color) color.Color {
	fwd, cr := e.csr.Neighbors, e.countRule
	if tab != nil {
		base := v * grid.Degree
		if i, ok := rules.TableIndex(cells[v], cells[fwd[base]], cells[fwd[base+1]], cells[fwd[base+2]], cells[fwd[base+3]]); ok {
			return color.Color(tab[i])
		}
	}
	if cr != nil && e.deg4 {
		base := v * grid.Degree
		var cs rules.Counts
		cs.Add(cells[fwd[base]])
		cs.Add(cells[fwd[base+1]])
		cs.Add(cells[fwd[base+2]])
		cs.Add(cells[fwd[base+3]])
		return cr.NextFromCounts(cells[v], cs)
	}
	row := fwd[e.csr.Off[v]:e.csr.Off[v+1]]
	if cr != nil {
		var cs rules.Counts
		fits := true
		for _, u := range row {
			if fits = cs.AddOK(cells[u]); !fits {
				break
			}
		}
		if fits {
			return cr.NextFromCounts(cells[v], cs)
		}
	}
	s := (*scratch)[:0]
	for _, u := range row {
		s = append(s, cells[u])
	}
	*scratch = s
	return e.rule.Next(cells[v], s)
}

// stepRangeTV is the time-varying inner loop: vertex v reads only the
// neighbors whose link is available this round, and applies the rule to the
// reduced multiset when at least two neighbors are reachable (with fewer it
// keeps its color).  It always uses the rule's slice path, the reference
// semantics every other path is tested against, because the reduced
// neighborhood is not the multiset CountRule implementations were verified
// on.
func (e *Engine) stepRangeTV(round int, avail Availability, cur, next []color.Color, lo, hi int, scratch []color.Color) int {
	changed := 0
	fwd, off := e.csr.Neighbors, e.csr.Off
	for v := lo; v < hi; v++ {
		scratch = scratch[:0]
		for _, u := range fwd[off[v]:off[v+1]] {
			a, b := v, int(u)
			if a > b {
				a, b = b, a
			}
			if avail.Available(round, a, b) {
				scratch = append(scratch, cur[u])
			}
		}
		cv := cur[v]
		nc := cv
		if len(scratch) >= 2 {
			nc = e.rule.Next(cv, scratch)
		}
		next[v] = nc
		if nc != cv {
			changed++
		}
	}
	return changed
}

// Step applies one synchronous round, reading from cur and writing into
// next.  It returns the number of vertices that changed color.  cur and next
// must have the engine's dimensions and must not alias.  Step is the
// sequential oracle: it applies the rule through its counts or slice form,
// never the rule table, so differential tests pin the table to it.
// StepParallel is the tabulated round.
func (e *Engine) Step(cur, next *color.Coloring) int {
	if cur.Dims() != e.sub.Dims() || next.Dims() != e.sub.Dims() {
		panic(fmt.Sprintf("sim: Step dimension mismatch (%v, %v) vs %v", cur.Dims(), next.Dims(), e.sub.Dims()))
	}
	st := e.getState()
	defer e.putState(st)
	changed, _ := e.stepRange(nil, cur.Cells(), next.Cells(), 0, cur.N(), st.scratch)
	return changed
}

// Run evolves the initial coloring under the engine's rule until a stop
// condition holds.  The initial coloring is not modified.  It is RunContext
// with a background context (which can never abort the run); it panics when
// a forced Options.Kernel does not qualify, the only other error RunContext
// can produce.
func (e *Engine) Run(initial *color.Coloring, opt Options) *Result {
	res, err := e.RunContext(context.Background(), initial, opt)
	if res == nil && err != nil {
		panic(err)
	}
	return res
}

// RunContext is Run with cancellation: the context is checked at every
// round boundary, and when it is canceled (or its deadline passes) the run
// stops promptly and returns the partial Result together with ctx.Err().
// Observers do not receive OnFinish for an aborted run.
//
// On a nil error the returned Result is complete, exactly as from Run.
// The stepping tier follows Options.Kernel (see the Kernel constants for
// the automatic selection).  All tiers are bit-identical; a forced
// KernelBitplane that does not qualify returns a nil Result and an error
// wrapping ErrBitplaneIneligible.
//
// RunContext is a drain of Stream: the round loop, the stop conditions and
// the Observer plumbing are the streaming ones, so batch and streaming
// consumers cannot drift.
func (e *Engine) RunContext(ctx context.Context, initial *color.Coloring, opt Options) (*Result, error) {
	return drainStream(e.Stream(ctx, initial, opt))
}

// finish fills the terminal fields of a completed run from the final
// configuration.
func finish(res *Result, final *color.Coloring, opt Options) {
	res.Final = final.Clone()
	res.FinalColor, res.Monochromatic = res.Final.IsMonochromatic()
	if opt.Target == color.None {
		res.MonotoneTarget = false
	}
}

// finishAborted is finish for a context-canceled run (no OnFinish).
func finishAborted(res *Result, final *color.Coloring, opt Options) *Result {
	finish(res, final, opt)
	return res
}
