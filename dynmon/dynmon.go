// Package dynmon is the public API of the repository: dynamic monopolies
// ("dynamos") on colored tori under the SMP-Protocol of Brunetti, Lodi and
// Quattrociocchi (IPPS Workshops 2011, arXiv:1101.5915), plus the baseline
// rules and topologies the paper compares against, and the general-graph
// and time-varying extensions its conclusions call for.
//
// A System bundles a substrate, a palette and a recoloring rule, built with
// functional options:
//
//	sys, err := dynmon.New(dynmon.Mesh(9, 9), dynmon.Colors(5), dynmon.WithRule("smp"))
//
// Substrates are not limited to the three tori: the same tiered engine
// steps arbitrary graphs, so scale-free and small-world systems are one
// option away (with the degree-aware "generalized-smp" rule as their
// default):
//
//	sys, err := dynmon.New(dynmon.BarabasiAlbert(10000, 2, 7), dynmon.Colors(2))
//
// Simulation is context-aware — Run honors cancellation and deadlines at
// every round boundary:
//
//	res, err := sys.Run(ctx, initial, dynmon.Target(1), dynmon.StopWhenMonochromatic())
//
// The whole surface is spec-driven: a System round-trips through a
// JSON-serializable Spec (ParseSpec, Spec.New, System.Spec) and a run
// through a RunSpec — the functional options are thin adapters over both,
// so the imperative and declarative paths cannot drift.  Runs stream as
// pull-based step sequences (System.Steps, an iter.Seq2 with one Step per
// round; early break = cancellation, bit-identical to Run), and any step —
// or a canceled run's partial Result — emits a serializable Checkpoint that
// System.Resume continues bit-identically to an uninterrupted run, in this
// process or another.
//
// The TimeVarying run option masks link availability per round (Bernoulli
// churn, node faults, duty cycling — or any Availability implementation),
// the intermittent-network model from the paper's conclusions.
//
// Every run picks a stepping tier (word-parallel bitplane, dirty frontier,
// striped parallel, or the sequential sweep oracle) automatically; all
// tiers are bit-identical, Kernel forces one, and Result.Kernel reports the
// tier used (in process only; the Result's JSON never says how it ran).
// Parallel(n) runs that the bitplane tier does not take step on the striped
// parallel sweep: one contiguous stripe of vertices per worker, each stripe
// also recording its own range's target trace and period-2 comparison, so
// no serial pass over the lattice follows a round.
//
// Observers (OnRound/OnFinish) watch a run as it evolves; the package ships
// a history recorder, an ASCII animator and a stats collector.  Observer
// delivery is one adapter over the step stream, so observed and unobserved
// runs cannot diverge.  A Session fans a batch of initial colorings across
// a bounded worker pool over one shared engine, with bit-identical results
// to one-at-a-time runs.  For two-color ensembles on bitplane-eligible
// substrates, Session.RunBatch transparently steps up to 64 replicas per
// word on a bit-sliced tier (replica r rides bit r of each vertex's word;
// per-lane masks freeze finished replicas), tiling larger batches across
// the pool and falling back to the per-run loop when ineligible — same
// API, same Result bytes either way.  Batches are spec-addressable too:
// a BatchSpec (one system + run section, many initial items) round-trips
// through ParseBatchSpec, digests as a whole (BatchSpec.Digest) and per
// item (BatchSpec.ItemDigest, equal to the digest of the item's
// equivalent single-run FileSpec), and drives both the dynamosim
// -batch-spec CLI mode and dynserve's POST /v1/batch endpoint.  Greedy
// target-set selection is spec-shaped as well: System.TargetSet takes a
// serializable TargetSetSpec (zero values mean defaults) and scores
// candidate seeds on the sliced tier.
//
// Dynamics need not be deterministic or synchronous: the WithSchedule /
// UniformAsync / Sequential / RandomSequential / VertexClock options pick
// which vertices fire each round, and Noisy(eps, seed) makes the rule
// ε-faulty (with probability eps an application misfires and the vertex
// takes a color drawn uniformly from the whole palette).  Every random bit
// comes from counter-based hashes of (seed, round, vertex), so stochastic
// runs stay pure functions of their spec — bit-identical across worker
// counts, kernel tiers and checkpoint/resume, with the schedule and noise
// seeds riding RunSpec and Checkpoint automatically.  The Monte-Carlo
// harness on top is Ensemble: an EnsembleSpec (system + run + replica
// count + master seed + optional one-axis sweep over
// density/eps/p/threshold) fans counter-seeded replicas through a Session —
// deterministic points ride the bit-sliced batch tier, synchronous noisy
// replicas the bitplane tier — and aggregates an EnsembleReport with Wilson
// 95% takeover intervals and rounds-to-takeover quantiles, byte-identical
// for any worker count.  ParseEnsembleSpec is strict and fuzzed;
// EnsembleSpec.Digest is the content address dynserve's POST /v1/ensembles
// caches by.
//
// Rules, topologies and graph generators are pluggable: RegisterRule,
// RegisterTopology and RegisterGenerator add new implementations resolvable
// by name — in options and in specs — without forking the repository.
//
// Because specs canonicalize (Spec.Canonical) and runs are deterministic,
// every run has a stable content address: Spec.Digest and FileSpec.Digest
// hash the canonical wire form, and equal digests imply byte-identical
// terminal Results.  The repro/dynserve package (and its cmd/dynmond
// binary) builds on exactly this contract to serve runs over HTTP with a
// provably-correct result cache and checkpointed, resumable jobs.
package dynmon

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Aliases re-export the domain types of the internal packages so callers of
// the public API can name them without importing internal paths (which the
// Go toolchain forbids outside this module).
type (
	// Color is one element of the finite color set C = {1..k}.
	Color = color.Color
	// Coloring is a total color assignment over the torus vertices.
	Coloring = color.Coloring
	// Palette is the finite ordered color set C = {1..K}.
	Palette = color.Palette
	// Rule is a local, deterministic recoloring rule.
	Rule = rules.Rule
	// Topology is a 4-regular interaction topology over an m×n lattice.
	Topology = grid.Topology
	// Dims describes the size of an m×n torus.
	Dims = grid.Dims
	// Result describes a finished simulation run.
	Result = sim.Result
	// Observer receives the evolution of a run round by round.
	Observer = sim.Observer
	// Construction is a seed-plus-padding configuration from the paper.
	Construction = dynamo.Construction
	// Experiment is one entry of the paper's experiment index (E01..E18).
	Experiment = analysis.Experiment
)

// None is the zero Color, meaning "no color".
const None = color.None

// System bundles a substrate — a torus topology or a general graph — with a
// palette and a recoloring rule, and owns the simulation engine that
// evolves colorings under them.  A System is immutable after New and safe
// for concurrent use.
type System struct {
	topo    Topology      // nil for graph systems
	graph   *GeneralGraph // nil for torus systems
	palette Palette
	rule    Rule
	engine  *sim.Engine
	// spec is the canonical declarative description when the system was
	// built through the spec path (names, generators, spec files); nil for
	// instance-built systems, whose Spec() derives one on demand.
	spec *Spec
}

// New builds a System from functional options.  The zero configuration is
// the paper's running example — a 9×9 toroidal mesh, five colors and the
// SMP-Protocol — so every option is optional:
//
//	sys, err := dynmon.New(dynmon.Mesh(9, 9), dynmon.Colors(5), dynmon.WithRule("smp"))
func New(opts ...Option) (*System, error) {
	cfg := Config{
		TopologyName: "toroidal-mesh",
		Rows:         9,
		Cols:         9,
		Colors:       5,
		RuleName:     "smp",
	}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	return NewFromConfig(cfg)
}

// NewFromConfig builds a System from an explicit Config; New is the
// options-based front end.  Instance fields win over the corresponding name
// fields, and a Graph substrate wins over the generator and both topology
// fields.  Graph systems whose rule is the (default) "smp" name resolve it
// to "generalized-smp", the degree-aware form of the same protocol — on
// 4-regular substrates the two are bit-identical (pinned by differential
// tests), and on irregular graphs only the generalized form has the
// intended ⌈d/2⌉ majority semantics.
//
// Whenever the Config names everything (no pre-built instances), it reduces
// to a Spec and builds through Spec.New — the one constructor — so the
// imperative and declarative paths cannot drift, and the resulting system
// is spec-serializable (System.Spec).
func NewFromConfig(cfg Config) (*System, error) {
	if sp, ok := cfg.spec(); ok {
		return sp.New()
	}
	var (
		topo  Topology
		graph = cfg.Graph
		err   error
	)
	if graph == nil && cfg.Generator != nil && cfg.Topology == nil {
		gen := cfg.Generator
		graph, err = graphs.GenerateByName(gen.Name, gen.N, gen.Params, gen.Seed)
		if err != nil {
			return nil, err
		}
	}
	if graph == nil {
		topo = cfg.Topology
		if topo == nil {
			topo, err = grid.ByName(cfg.TopologyName, cfg.Rows, cfg.Cols)
			if err != nil {
				return nil, err
			}
		}
	}
	p, err := color.NewPalette(cfg.Colors)
	if err != nil {
		return nil, err
	}
	rule := cfg.Rule
	if rule == nil {
		name := cfg.RuleName
		if graph != nil && name == "smp" {
			name = "generalized-smp"
		}
		rule, err = rules.ByName(name)
		if err != nil {
			return nil, err
		}
	}
	s := &System{
		topo:    topo,
		graph:   graph,
		palette: p,
		rule:    rule,
	}
	if graph != nil {
		s.engine = graph.EngineFor(rule)
	} else {
		s.engine = sim.NewEngine(topo, rule)
	}
	return s, nil
}

// Topology returns the system's torus topology, or nil for a graph system.
func (s *System) Topology() Topology { return s.topo }

// Graph returns the system's general graph, or nil for a torus system.
func (s *System) Graph() *GeneralGraph { return s.graph }

// Palette returns the system's color set.
func (s *System) Palette() Palette { return s.palette }

// Rule returns the system's recoloring rule.
func (s *System) Rule() Rule { return s.rule }

// Dims returns the substrate's vertex layout: the lattice dimensions of a
// torus system, or the degenerate 1×n line of a graph system.
func (s *System) Dims() Dims { return s.engine.Substrate().Dims() }

// N returns the number of vertices.
func (s *System) N() int { return s.Dims().N() }

// String renders the system as "substrate, K colors, rule".
func (s *System) String() string {
	if s.graph != nil {
		return fmt.Sprintf("graph n=%d m=%d, %d colors, rule %s", s.graph.N(), s.graph.EdgeCount(), s.palette.K, s.rule.Name())
	}
	d := s.topo.Dims()
	return fmt.Sprintf("%s %dx%d, %d colors, rule %s", s.topo.Name(), d.Rows, d.Cols, s.palette.K, s.rule.Name())
}

// Run evolves the initial coloring under the system's rule until a stop
// condition holds, honoring the context at every round boundary: when ctx
// is canceled or its deadline passes the run stops promptly and returns the
// partial Result together with ctx.Err().  The initial coloring is not
// modified.
//
// The options fold into a RunSpec — Run and a spec file describe a run the
// same way — and Run itself is a drain of the Steps stream.
func (s *System) Run(ctx context.Context, initial *Coloring, opts ...RunOption) (*Result, error) {
	rs := runSpecOf(opts)
	if rs.cpEvery > 0 {
		// The CheckpointEvery cadence lives in the public stream wrapper;
		// honor it by draining the stream — which is all RunContext does
		// anyway, so the result is bit-identical.
		return drainSteps(s.stepsSpec(ctx, initial, rs))
	}
	opt, err := rs.engineOptions(s.palette.K)
	if err != nil {
		return nil, err
	}
	return s.engine.RunContext(ctx, initial, opt)
}

// RunSpecced is Run driven entirely by a parsed RunSpec, the spec-file path
// of the CLI tools; extra options apply on top of the spec.
func (s *System) RunSpecced(ctx context.Context, initial *Coloring, spec RunSpec, opts ...RunOption) (*Result, error) {
	return s.Run(ctx, initial, append([]RunOption{WithRunSpec(spec)}, opts...)...)
}

// NewColoring returns a coloring of the system's dimensions with every
// vertex set to fill (use None to leave it unset).
func (s *System) NewColoring(fill Color) *Coloring {
	return color.NewColoring(s.Dims(), fill)
}

// RandomColoring returns a uniformly random coloring of the system's
// substrate, deterministic in the seed.
func (s *System) RandomColoring(seed uint64) *Coloring {
	src := rng.New(seed)
	return color.RandomColoring(s.Dims(), s.palette, func() int { return src.Intn(s.palette.K) })
}

// MinimumDynamo builds the paper's tight construction for the system's
// topology: Theorem 2 for the toroidal mesh, Theorem 4 for the torus
// cordalis and Theorem 6 for the torus serpentinus.  Graph systems have no
// such closed-form construction and return an error; use the target-set
// helpers (SeedTopByDegree, SeedRandom, TargetSet) instead.
func (s *System) MinimumDynamo(target Color) (*Construction, error) {
	if s.topo == nil {
		return nil, fmt.Errorf("dynmon: MinimumDynamo requires a torus topology; graph systems use the target-set helpers")
	}
	d := s.topo.Dims()
	return dynamo.Minimum(s.topo.Kind(), d.Rows, d.Cols, target, s.palette)
}

// LowerBound returns the paper's lower bound on the size of a monotone
// dynamo for the system's topology and size, or 0 for a graph system (the
// paper proves no general-graph bound).
func (s *System) LowerBound() int {
	if s.topo == nil {
		return 0
	}
	return dynamo.LowerBound(s.topo.Kind(), s.topo.Dims())
}

// PredictedRounds returns the Theorem 7/8 convergence-time prediction for
// the system's topology and size, or 0 for a graph system.
func (s *System) PredictedRounds() int {
	if s.topo == nil {
		return 0
	}
	return dynamo.PredictedRounds(s.topo.Kind(), s.topo.Dims())
}

// NewPalette returns the palette {1..k}, or an error for k < 1 or k > 255.
func NewPalette(k int) (Palette, error) { return color.NewPalette(k) }
