package dynmon

import (
	"fmt"

	"repro/internal/graphs"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/tvg"
)

// GeneralGraph is a simple undirected graph substrate.  Systems built over
// one run on exactly the same tiered engine as the tori — dirty frontier by
// default, striped parallel sweeps on request, pooled zero-allocation
// buffers — with only the torus-specific bitplane tier out of reach.
type GeneralGraph = graphs.Graph

// NewGraph returns an empty graph with n vertices; add edges with AddEdge
// and hand it to a System through the Graph option.
func NewGraph(n int) *GeneralGraph { return graphs.NewGraph(n) }

// NewBarabasiAlbert generates a scale-free graph with n vertices by
// preferential attachment (each new vertex attaches to m existing ones),
// deterministic in the seed.
func NewBarabasiAlbert(n, m int, seed uint64) (*GeneralGraph, error) {
	return graphs.NewBarabasiAlbert(n, m, rng.New(seed))
}

// NewWattsStrogatz generates a small-world graph: a ring lattice with k
// neighbors per vertex (k even), each edge rewired with probability beta,
// deterministic in the seed.
func NewWattsStrogatz(n, k int, beta float64, seed uint64) (*GeneralGraph, error) {
	return graphs.NewWattsStrogatz(n, k, beta, rng.New(seed))
}

// NewErdosRenyi generates a G(n, p) random graph, deterministic in the seed.
func NewErdosRenyi(n int, p float64, seed uint64) (*GeneralGraph, error) {
	return graphs.NewErdosRenyi(n, p, rng.New(seed))
}

// Graph makes the system run over the given general graph instead of a
// torus.  The system builds its own copy from the graph's canonical edge
// list, so every vertex reads its neighbors in ascending order whatever
// order the edges were added in, System.Graph returns that copy, and later
// mutations of g do not affect the system.  When no rule is chosen
// explicitly the system uses "generalized-smp", the degree-aware form of
// the paper's protocol (bit-identical to "smp" on 4-regular substrates).
// Such a system serializes as an explicit edge list (see System.Spec); the
// generator options below keep the compact generator-by-name form instead.
func Graph(g *GeneralGraph) Option {
	return func(c *Config) error {
		if g == nil {
			return fmt.Errorf("dynmon: nil graph")
		}
		c.Graph, c.Generator = g, nil
		return nil
	}
}

// WithGenerator selects a registered graph generator by name with explicit
// parameters and seed — the spec-serializable substrate form the
// BarabasiAlbert/WattsStrogatz/ErdosRenyi helpers reduce to.
func WithGenerator(name string, n int, params map[string]float64, seed uint64) Option {
	return func(c *Config) error {
		if name == "" {
			return fmt.Errorf("dynmon: empty generator name")
		}
		c.Generator = &GeneratorSpec{Name: name, N: n, Params: params, Seed: seed}
		c.Graph = nil
		return nil
	}
}

// BarabasiAlbert selects a freshly generated scale-free Barabási–Albert
// substrate (n vertices, m attachments per new vertex, deterministic in
// seed).  Use Graph with NewBarabasiAlbert to keep a handle on the graph.
func BarabasiAlbert(n, m int, seed uint64) Option {
	return WithGenerator("barabasi-albert", n, map[string]float64{"m": float64(m)}, seed)
}

// WattsStrogatz selects a freshly generated small-world Watts–Strogatz
// substrate (ring lattice of degree k, rewiring probability beta,
// deterministic in seed).
func WattsStrogatz(n, k int, beta float64, seed uint64) Option {
	return WithGenerator("watts-strogatz", n, map[string]float64{"k": float64(k), "beta": beta}, seed)
}

// ErdosRenyi selects a freshly generated G(n, p) random-graph substrate,
// deterministic in seed.
func ErdosRenyi(n int, p float64, seed uint64) Option {
	return WithGenerator("erdos-renyi", n, map[string]float64{"p": p}, seed)
}

// Availability decides which links are usable in a given round; it is the
// contract behind the TimeVarying run option.  Implementations must be
// deterministic pure functions of (round, u, v) — the engine may evaluate
// them from several goroutines and always passes u < v.
type Availability = sim.Availability

// Link-availability models for TimeVarying, re-exported from the internal
// tvg package: AlwaysOn is the static network, Bernoulli independent link
// churn, NodeFaults whole-vertex churn layered over a link model, and
// Periodic synchronized duty-cycling.
type (
	AlwaysOn   = tvg.AlwaysOn
	Bernoulli  = tvg.Bernoulli
	NodeFaults = tvg.NodeFaults
	Periodic   = tvg.Periodic
)

// TimeVarying masks link availability per round: each round every vertex
// reads only the neighbors whose link the model reports available, and
// applies the rule to that reduced multiset when at least two neighbors are
// reachable.  This is the intermittent-network extension from the paper's
// conclusions, and it works over every substrate, torus or graph.
//
// Time-varying runs always use full-sweep semantics: link churn can change
// a vertex's input without any color changing, which makes the dirty
// frontier and bitplane tiers unsound, so forcing those kernels returns an
// error (wrapping ErrTimeVaryingSweepOnly).  A zero-change round stops the
// run only when the model declares itself static; combine with
// StopWhenMonochromatic and an explicit MaxRounds to bound intermittent
// runs.
//
// The built-in models (AlwaysOn, Bernoulli, NodeFaults, Periodic) also have
// a declarative form — RunSpec.TimeVarying, an AvailabilitySpec — which is
// how spec files and checkpoints carry them; this option accepts any
// Availability implementation and wins over the spec field when both are
// set.
func TimeVarying(a Availability) RunOption {
	return func(rs *RunSpec) { rs.availability = a }
}

// ErrTimeVaryingSweepOnly is the error (wrapped) returned by time-varying
// runs that force the frontier or bitplane kernel.
var ErrTimeVaryingSweepOnly = sim.ErrTimeVaryingSweepOnly

// SeedTopByDegree returns a coloring in which the size highest-degree
// vertices carry the target color and every other vertex carries
// background — the classic hub heuristic for target set selection.  On a
// torus system every vertex has degree 4, so the "hubs" are simply the
// first vertices in index order.
func (s *System) SeedTopByDegree(size int, target, background Color) *Coloring {
	if s.graph != nil {
		return graphs.SeedTopByDegree(s.graph, size, target, background)
	}
	c := s.NewColoring(background)
	for v := 0; v < size && v < s.N(); v++ {
		c.Set(v, target)
	}
	return c
}

// SeedRandom returns a coloring in which size uniformly chosen vertices
// carry the target color, deterministic in the seed.
func (s *System) SeedRandom(size int, target, background Color, seed uint64) *Coloring {
	src := rng.New(seed)
	c := s.NewColoring(background)
	perm := src.Perm(s.N())
	if size > len(perm) {
		size = len(perm)
	}
	for _, v := range perm[:size] {
		c.Set(v, target)
	}
	return c
}

// TargetSetSpec configures TargetSet, the simulation-driven greedy seed
// search.  The zero value is a sensible search: target color 1 spreading
// over the palette's next color, up to 8 seeds, the substrate's default
// round budget, every candidate scored each step, RNG seed 0.  It is
// JSON-serializable so experiment files and services can carry it.
type TargetSetSpec struct {
	// Target is the color the seed set should spread (default 1).
	Target Color `json:"target,omitempty"`
	// Background is the color every non-seed vertex starts with (default:
	// the first palette color other than Target).
	Background Color `json:"background,omitempty"`
	// MaxSeed caps the number of chosen seed vertices (default 8).
	MaxSeed int `json:"max_seed,omitempty"`
	// MaxRounds bounds each candidate evaluation run (<= 0 selects the
	// substrate's default budget).
	MaxRounds int `json:"max_rounds,omitempty"`
	// CandidateSample > 0 restricts each greedy step to a deterministic
	// random sample of that many candidates; 0 scores every candidate.
	CandidateSample int `json:"candidate_sample,omitempty"`
	// Seed drives the candidate-sampling RNG.
	Seed uint64 `json:"seed,omitempty"`
}

// TargetSet runs the simulation-driven greedy baseline from the target set
// selection literature on the system's engine: it repeatedly adds the
// vertex whose activation most increases the final number of target-colored
// vertices, until the whole substrate activates or MaxSeed vertices are
// chosen, and returns the chosen vertices.  Candidates are scored exactly —
// 64 at a time on the bit-sliced ensemble tier when the system can slice
// (two colors, degree-4 substrate, carry-save rule kernel), one pooled
// engine run each otherwise — so the intended use without a
// CandidateSample is substrates of a few hundred vertices.  Zero spec
// fields take the defaults documented on TargetSetSpec.
func (s *System) TargetSet(spec TargetSetSpec) []int {
	if spec.Target == 0 {
		spec.Target = 1
	}
	if spec.Background == 0 {
		spec.Background = spec.Target
		for _, c := range s.Palette().Others(spec.Target) {
			spec.Background = c
			break
		}
	}
	if spec.MaxSeed == 0 {
		spec.MaxSeed = 8
	}
	return graphs.GreedyTargetSetEngine(s.engine, spec.Target, spec.Background,
		spec.MaxSeed, spec.MaxRounds, spec.CandidateSample, rng.New(spec.Seed))
}
