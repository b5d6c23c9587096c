package dynmon

import (
	"fmt"

	"repro/internal/sim"
)

// Config is the explicit form of a System description.  Most callers use
// New with functional options instead; the struct exists for callers that
// assemble configuration from flags.  Whenever no pre-built instances are
// involved, NewFromConfig reduces the Config to a Spec and builds through
// Spec.New — the struct is an adapter, not a second constructor.  For a
// fully declarative, JSON-round-trippable description use Spec directly.
type Config struct {
	// TopologyName is resolved through the topology registry ("mesh",
	// "toroidal-mesh", "cordalis", ... or any registered name) with the
	// Rows×Cols dimensions.
	TopologyName string
	Rows, Cols   int
	// Colors is the palette size K.
	Colors int
	// RuleName is resolved through the rule registry ("smp",
	// "simple-majority-pb", ... or any registered name).  Ignored when Rule
	// is non-nil.  On a graph substrate "smp" selects "generalized-smp"
	// (see NewFromConfig).
	RuleName string
	// Rule, when non-nil, is used directly.
	Rule Rule
	// Generator, when non-nil, makes the system run over a graph built by a
	// registered generator (by name, parameters and seed — the
	// spec-serializable form the BarabasiAlbert/WattsStrogatz/ErdosRenyi
	// options produce) instead of the named topology.  Ignored when Graph
	// is non-nil.
	Generator *GeneratorSpec
	// Graph, when non-nil, makes the system run over this general graph's
	// canonical edge list and wins over the generator and the topology
	// name.
	Graph *GeneralGraph
}

// spec reduces the Config to a Spec: the graph's edge list, the generator
// or the named topology, the palette and the rule name.
func (cfg Config) spec() *Spec {
	sp := &Spec{Colors: cfg.Colors, Rule: cfg.RuleName}
	switch {
	case cfg.Graph != nil:
		sp.Substrate.Edges = edgeListOf(cfg.Graph)
	case cfg.Generator != nil:
		gen := *cfg.Generator
		sp.Substrate.Generator = &gen
	default:
		sp.Substrate.Topology = &TopologySpec{Name: cfg.TopologyName, Rows: cfg.Rows, Cols: cfg.Cols}
	}
	return sp
}

// Option configures New.
type Option func(*Config) error

// Mesh selects an m×n toroidal mesh topology.
func Mesh(m, n int) Option { return WithTopology("toroidal-mesh", m, n) }

// Cordalis selects an m×n torus cordalis topology.
func Cordalis(m, n int) Option { return WithTopology("torus-cordalis", m, n) }

// Serpentinus selects an m×n torus serpentinus topology.
func Serpentinus(m, n int) Option { return WithTopology("torus-serpentinus", m, n) }

// WithTopology selects a registered topology by name ("mesh", "cordalis",
// "serpentinus", the full paper names, or any name added through
// RegisterTopology) with the given dimensions.
func WithTopology(name string, m, n int) Option {
	return func(c *Config) error {
		c.TopologyName, c.Rows, c.Cols = name, m, n
		c.Generator, c.Graph = nil, nil
		return nil
	}
}

// Colors sets the palette size K (the color set is {1..K}).
func Colors(k int) Option {
	return func(c *Config) error {
		c.Colors = k
		return nil
	}
}

// WithRule selects a registered rule by name ("smp", "simple-majority-pb",
// "pb", ... or any name added through RegisterRule).
func WithRule(name string) Option {
	return func(c *Config) error {
		c.RuleName, c.Rule = name, nil
		return nil
	}
}

// WithRuleInstance uses an already-constructed rule, e.g. one with
// non-default parameters.
func WithRuleInstance(r Rule) Option {
	return func(c *Config) error {
		if r == nil {
			return fmt.Errorf("dynmon: nil rule")
		}
		c.Rule = r
		return nil
	}
}

// RunSpec is the declarative, JSON-round-trippable description of a run:
// round cap, stop conditions, kernel, workers and the time-varying model.
// It is the wire form behind the RunOption front end — every option is a
// mutation of a RunSpec, and both System.Run and spec files reduce to one —
// so the imperative and declarative paths cannot drift.
//
// The zero RunSpec runs with all defaults (substrate round budget,
// automatic kernel, sequential, static network, run to fixed point).
type RunSpec struct {
	// MaxRounds bounds the number of synchronous rounds (0 selects the
	// substrate's default budget).
	MaxRounds int `json:"max_rounds,omitempty"`
	// Target is the color whose spread is tracked (0 = none).
	Target Color `json:"target,omitempty"`
	// StopWhenMonochromatic stops the run as soon as every vertex has the
	// same color.
	StopWhenMonochromatic bool `json:"stop_when_monochromatic,omitempty"`
	// DetectCycles stops the run when a period-2 oscillation is detected.
	DetectCycles bool `json:"detect_cycles,omitempty"`
	// RecordHistory keeps a copy of the configuration after every round.
	RecordHistory bool `json:"record_history,omitempty"`
	// Kernel forces a stepping tier by name ("bitplane", "frontier",
	// "sweep", "parallel"); empty or "auto" keeps the automatic selection.
	Kernel string `json:"kernel,omitempty"`
	// Parallel enables the striped parallel stepper with Workers goroutines
	// (0 = GOMAXPROCS), capped at the vertex count and at 256 stripes per
	// round; no Result byte depends on the count.
	Parallel bool `json:"parallel,omitempty"`
	Workers  int  `json:"workers,omitempty"`
	// TimeVarying selects a link-availability model by spec; see
	// AvailabilitySpec.  The TimeVarying run option (an arbitrary
	// Availability implementation) wins over this field when both are set.
	TimeVarying *AvailabilitySpec `json:"time_varying,omitempty"`
	// Schedule selects the update discipline by spec; see ScheduleSpec.
	// Omitted or "synchronous" keeps the paper's synchronous model.
	Schedule *ScheduleSpec `json:"schedule,omitempty"`
	// Noise makes every rule application ε-faulty; see NoiseSpec.
	Noise *NoiseSpec `json:"noise,omitempty"`

	// Non-wire attachments, set through run options: observers watch the
	// run, availability overrides TimeVarying with an arbitrary
	// implementation, cpEvery/cpSink periodically snapshot the run (see
	// CheckpointEvery).
	// They do not serialize — a checkpoint or spec file carries run
	// semantics, not process-local callbacks.
	observers    []Observer
	availability Availability
	cpEvery      int
	cpSink       func(*Checkpoint) error
}

// RunOption configures a single Run (or every run of a Session batch) by
// mutating the run's RunSpec.
type RunOption func(*RunSpec)

// runSpecOf folds RunOptions into a RunSpec.
func runSpecOf(opts []RunOption) RunSpec {
	var rs RunSpec
	for _, opt := range opts {
		opt(&rs)
	}
	return rs
}

// WithRunSpec overlays a complete RunSpec: its wire fields replace the ones
// accumulated so far, while non-wire attachments (observers, an explicit
// availability model, a checkpoint sink) are merged.  It is how
// spec-file-driven callers pass a parsed RunSpec through the same option
// path everything else uses.
func WithRunSpec(spec RunSpec) RunOption {
	return func(rs *RunSpec) {
		observers := append(rs.observers, spec.observers...)
		availability := spec.availability
		if availability == nil {
			availability = rs.availability
		}
		cpEvery, cpSink := spec.cpEvery, spec.cpSink
		if cpSink == nil {
			cpEvery, cpSink = rs.cpEvery, rs.cpSink
		}
		*rs = spec
		rs.observers, rs.availability = observers, availability
		rs.cpEvery, rs.cpSink = cpEvery, cpSink
	}
}

// engineOptions lowers the RunSpec onto the engine's option struct.  colors
// is the system's palette size K: it completes the noise model (faulted
// applications draw uniformly from {1..K}), which the wire spec deliberately
// does not repeat.
func (rs RunSpec) engineOptions(colors int) (sim.Options, error) {
	kernel, err := sim.ParseKernel(rs.Kernel)
	if err != nil {
		return sim.Options{}, fmt.Errorf("dynmon: %w", err)
	}
	o := sim.Options{
		MaxRounds:             rs.MaxRounds,
		Target:                rs.Target,
		StopWhenMonochromatic: rs.StopWhenMonochromatic,
		DetectCycles:          rs.DetectCycles,
		RecordHistory:         rs.RecordHistory,
		Kernel:                kernel,
		Parallel:              rs.Parallel,
		Workers:               rs.Workers,
		Observers:             rs.observers,
	}
	switch {
	case rs.availability != nil:
		o.TimeVarying = rs.availability
	case rs.TimeVarying != nil:
		model, err := rs.TimeVarying.Build()
		if err != nil {
			return sim.Options{}, err
		}
		o.TimeVarying = model
	}
	if rs.Schedule != nil {
		sched, err := rs.Schedule.Build()
		if err != nil {
			return sim.Options{}, err
		}
		o.Schedule = sched
	}
	if rs.Noise != nil {
		o.Noise = &sim.Noise{Eps: rs.Noise.Eps, Colors: colors, Seed: rs.Noise.Seed}
	}
	return o, nil
}

// wireClone returns the RunSpec with only its serializable fields, deep.
func (rs RunSpec) wireClone() RunSpec {
	out := rs
	out.observers, out.availability = nil, nil
	out.cpEvery, out.cpSink = 0, nil
	if rs.TimeVarying != nil {
		tv := *rs.TimeVarying
		out.TimeVarying = &tv
	}
	if rs.Schedule != nil {
		sched := *rs.Schedule
		out.Schedule = &sched
	}
	if rs.Noise != nil {
		noise := *rs.Noise
		out.Noise = &noise
	}
	return out
}

// ScheduleSpec is the wire form of an update schedule (sim.Schedule): a mode
// name — "synchronous", "uniform-async", "sequential", "random-sequential"
// or "vertex-clock" — with the mode's parameters.  All schedule randomness
// is counter-based on Seed, so a spec pins the trajectory exactly: same
// spec, same schedule draws, on any kernel, worker count or resume boundary.
type ScheduleSpec struct {
	// Mode names the update discipline; empty means synchronous.
	Mode string `json:"mode"`
	// P is the uniform-async per-round activation probability (0 selects the
	// default 0.5); other modes ignore it.
	P float64 `json:"p,omitempty"`
	// Period bounds the per-vertex period of vertex-clock (0 selects the
	// default 4); other modes ignore it.
	Period int `json:"period,omitempty"`
	// Seed selects the activation stream.
	Seed uint64 `json:"seed,omitempty"`
}

// Build instantiates the schedule the spec names.
func (ss *ScheduleSpec) Build() (*sim.Schedule, error) {
	kind, err := sim.ParseScheduleKind(ss.Mode)
	if err != nil {
		return nil, fmt.Errorf("dynmon: %w", err)
	}
	return &sim.Schedule{Kind: kind, P: ss.P, Period: ss.Period, Seed: ss.Seed}, nil
}

// NoiseSpec is the wire form of the ε-faulty noise model (sim.Noise): every
// rule application independently misfires with probability Eps, replacing
// the computed color with a uniform draw from the system's palette.  The
// palette size is supplied by the system at run time, not repeated here.
// Fault draws are counter-based on Seed — see rules.FaultRound — so noisy
// runs are exactly as reproducible as deterministic ones.
type NoiseSpec struct {
	// Eps is the per-application fault probability in [0, 1]; zero disables
	// the noise.
	Eps float64 `json:"eps"`
	// Seed selects the fault stream.
	Seed uint64 `json:"seed,omitempty"`
}

// AvailabilitySpec is the wire form of the built-in link-availability
// models: "always-on", "bernoulli" (P, Seed), "node-faults" (P, Seed, plus
// an optional nested Links model for the underlying link layer) and
// "periodic" (Period, Off).
type AvailabilitySpec struct {
	Model  string            `json:"model"`
	P      float64           `json:"p,omitempty"`
	Seed   uint64            `json:"seed,omitempty"`
	Links  *AvailabilitySpec `json:"links,omitempty"`
	Period int               `json:"period,omitempty"`
	Off    int               `json:"off,omitempty"`
}

// Build instantiates the availability model the spec names.  Like the
// schedule and noise parameters, the model's are validated here: P must lie
// in [0, 1] and Period and Off must not be negative, and an error names the
// model and the field.  P = 0 (links never up) and a zero Period (a static
// network) are legal.
func (as *AvailabilitySpec) Build() (Availability, error) {
	if (as.Model == "bernoulli" || as.Model == "node-faults") && !(as.P >= 0 && as.P <= 1) { // also rejects NaN
		return nil, fmt.Errorf("dynmon: %s availability p %v outside [0, 1]", as.Model, as.P)
	}
	switch as.Model {
	case "always-on":
		return AlwaysOn{}, nil
	case "bernoulli":
		return Bernoulli{P: as.P, Seed: as.Seed}, nil
	case "node-faults":
		var links Availability
		if as.Links != nil {
			inner, err := as.Links.Build()
			if err != nil {
				return nil, err
			}
			links = inner
		}
		return NodeFaults{Links: links, P: as.P, Seed: as.Seed}, nil
	case "periodic":
		if as.Period < 0 {
			return nil, fmt.Errorf("dynmon: periodic availability period %d is negative", as.Period)
		}
		if as.Off < 0 {
			return nil, fmt.Errorf("dynmon: periodic availability off %d is negative", as.Off)
		}
		return Periodic{Period: as.Period, Off: as.Off}, nil
	default:
		return nil, fmt.Errorf("dynmon: unknown availability model %q (want always-on, bernoulli, node-faults or periodic)", as.Model)
	}
}

// availabilitySpecOf reverse-maps a built-in availability model to its wire
// form; ok is false for custom implementations, which have none.  The
// mapping is exact — Build on the result reproduces the model value — so a
// checkpointed time-varying run resumes under precisely the link draws it
// was started with (degenerate layers like a never-available Bernoulli
// included).
func availabilitySpecOf(a Availability) (*AvailabilitySpec, bool) {
	switch m := a.(type) {
	case AlwaysOn:
		return &AvailabilitySpec{Model: "always-on"}, true
	case Bernoulli:
		return &AvailabilitySpec{Model: "bernoulli", P: m.P, Seed: m.Seed}, true
	case Periodic:
		return &AvailabilitySpec{Model: "periodic", Period: m.Period, Off: m.Off}, true
	case NodeFaults:
		spec := &AvailabilitySpec{Model: "node-faults", P: m.P, Seed: m.Seed}
		if m.Links == nil {
			return spec, true
		}
		inner, ok := availabilitySpecOf(m.Links)
		if !ok {
			return nil, false
		}
		spec.Links = inner
		return spec, true
	default:
		return nil, false
	}
}

// MaxRounds bounds the number of synchronous rounds (0 selects the default
// budget for the topology, generous enough that non-convergence means "not
// a dynamo").
func MaxRounds(n int) RunOption {
	return func(rs *RunSpec) { rs.MaxRounds = n }
}

// Target tracks the spread of color k: per-vertex first-reach times and
// whether the k-colored set evolved monotonically.
func Target(k Color) RunOption {
	return func(rs *RunSpec) { rs.Target = k }
}

// StopWhenMonochromatic stops the run as soon as every vertex has the same
// color (the dynamo success condition).
func StopWhenMonochromatic() RunOption {
	return func(rs *RunSpec) { rs.StopWhenMonochromatic = true }
}

// DetectCycles stops the run when a period-2 oscillation is detected.
func DetectCycles() RunOption {
	return func(rs *RunSpec) { rs.DetectCycles = true }
}

// RecordHistory keeps a copy of the configuration after every round on
// Result.History.
func RecordHistory() RunOption {
	return func(rs *RunSpec) { rs.RecordHistory = true }
}

// Parallel enables the striped parallel stepper with the given worker
// count (0 selects GOMAXPROCS).  The effective count — capped at the vertex
// count and at 256 — is reported on Result.Workers, an in-process
// diagnostic that the Result's JSON omits.  Parallel and sequential runs
// are bit-identical.
func Parallel(workers int) RunOption {
	return func(rs *RunSpec) { rs.Parallel, rs.Workers = true, workers }
}

// KernelTier identifies one of the engine's stepping tiers.  All tiers are
// bit-identical; they differ only in speed.  Result.Kernel reports the tier
// a run actually used (with Result.Downshift marking an auto-tier mid-run
// handoff from the bitplane to the frontier).  Both are in-process
// diagnostics: the Result's JSON says what happened, never how it ran.
type KernelTier = sim.Kernel

const (
	// KernelAuto (the default) picks the bitplane kernel when the rule,
	// topology and coloring qualify, the parallel sweep when Parallel is
	// set, and the dirty frontier otherwise.
	KernelAuto = sim.KernelAuto
	// KernelBitplane forces the word-parallel bit-sliced stepper (runs on
	// uint64 bit planes, 64 vertices per word operation).  Runs whose rule,
	// topology or coloring do not qualify return an error wrapping
	// ErrBitplaneIneligible.
	KernelBitplane = sim.KernelBitplane
	// KernelFrontier forces the sequential dirty-frontier stepper.
	KernelFrontier = sim.KernelFrontier
	// KernelSweep forces the sequential full-sweep oracle stepper.
	KernelSweep = sim.KernelSweep
	// KernelParallel forces the striped parallel sweep.
	KernelParallel = sim.KernelParallel
)

// ErrBitplaneIneligible is the error (wrapped) returned by runs that force
// KernelBitplane on a rule, topology or coloring with no exact
// word-parallel form.
var ErrBitplaneIneligible = sim.ErrBitplaneIneligible

// ErrStochasticSweepOnly is the error (wrapped) returned by stochastic runs
// (a non-synchronous Schedule or an ε-faulty Noise) that force a kernel tier
// with no stochastic form — frontier, bitplane under a schedule, or parallel
// for the in-place sequential schedules.  Synchronous ε-faulty runs
// do run on the bitplane tier.
var ErrStochasticSweepOnly = sim.ErrStochasticSweepOnly

// Kernel forces the run's stepping tier instead of the automatic selection.
// See the KernelTier constants; the tier used is reported on Result.Kernel,
// which stays in process and never reaches the Result's JSON.
func Kernel(k KernelTier) RunOption {
	return func(rs *RunSpec) {
		if k == sim.KernelAuto {
			rs.Kernel = ""
			return
		}
		rs.Kernel = k.String()
	}
}

// WithSchedule sets the run's update schedule from its wire spec.  A nil
// spec restores the default synchronous schedule.
func WithSchedule(spec *ScheduleSpec) RunOption {
	return func(rs *RunSpec) { rs.Schedule = spec }
}

// UniformAsync makes each vertex update independently with probability p
// each round (0 selects the default 0.5) under the activation stream seed.
// Activation draws are counter-based, so the trajectory is bit-identical
// across kernels, worker counts and checkpoint/resume boundaries.
func UniformAsync(p float64, seed uint64) RunOption {
	return WithSchedule(&ScheduleSpec{Mode: "uniform-async", P: p, Seed: seed})
}

// Sequential updates vertices one at a time in row-major order, each update
// immediately visible to the rest of the sweep (the classic asynchronous
// raster scan; one engine round = one full sweep).
func Sequential() RunOption {
	return WithSchedule(&ScheduleSpec{Mode: "sequential"})
}

// RandomSequential updates vertices one at a time in a fresh seeded random
// permutation each sweep, each update immediately visible to the rest of
// the sweep.
func RandomSequential(seed uint64) RunOption {
	return WithSchedule(&ScheduleSpec{Mode: "random-sequential", Seed: seed})
}

// VertexClock gives every vertex its own update period in {1..period} (0
// selects the default bound 4) and phase, both derived from seed; a vertex
// updates only on rounds matching its clock.
func VertexClock(period int, seed uint64) RunOption {
	return WithSchedule(&ScheduleSpec{Mode: "vertex-clock", Period: period, Seed: seed})
}

// Noisy makes every rule application ε-faulty: with probability eps the
// computed color is replaced by a uniform draw from the palette (the
// ε-faulty majority model).  Fault draws are counter-based on seed, so noisy
// runs checkpoint, resume and parallelize bit-identically.  An eps of 0
// removes the noise.
func Noisy(eps float64, seed uint64) RunOption {
	return func(rs *RunSpec) {
		if eps == 0 {
			rs.Noise = nil
			return
		}
		rs.Noise = &NoiseSpec{Eps: eps, Seed: seed}
	}
}

// CheckpointEvery invokes sink with a serializable Checkpoint after every
// `every` completed rounds of the run (rounds every, 2·every, ... — never
// the terminal round, whose complete Result supersedes any snapshot).  It is
// the durability hook long-running services build on: the dynserve server
// uses it to keep a recent resume point for every job, so runs survive
// eviction, disconnects and process migration.  Checkpoints are deep
// snapshots taken at the round boundary, so the run continues bit-identically
// whether or not anyone ever resumes them.
//
// The cadence applies to streaming (System.Steps, System.ResumeSteps) and
// draining (System.Run, System.Resume) forms alike.  A sink error stops the
// run — a service that cannot persist its resume points is losing the very
// durability it asked for — surfacing the error through the stream (or from
// Run).  The attachment is process-local and does not serialize; an `every`
// of 0 or a nil sink disables the cadence.
func CheckpointEvery(every int, sink func(*Checkpoint) error) RunOption {
	return func(rs *RunSpec) {
		if every <= 0 || sink == nil {
			rs.cpEvery, rs.cpSink = 0, nil
			return
		}
		rs.cpEvery, rs.cpSink = every, sink
	}
}

// WithObserver notifies o after every round (OnRound) and when the run
// stops on its own (OnFinish).  May be given multiple times; observers run
// in order from the run's driving goroutine.  Under the hood observers are
// one adapter over the step stream — see System.Steps.
func WithObserver(obs Observer) RunOption {
	return func(rs *RunSpec) { rs.observers = append(rs.observers, obs) }
}
