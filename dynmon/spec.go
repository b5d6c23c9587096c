package dynmon

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"slices"

	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Spec is the declarative, JSON-round-trippable description of a System: a
// substrate (torus topology, graph generator or explicit edge list), a
// palette size and a rule name.  It is the wire form of the public API — the
// functional options and Config are thin adapters that produce a Spec, and
// Spec.New is the one constructor behind every path, so the imperative and
// declarative surfaces cannot drift.
//
// Specs built by System.Spec are canonical: registry aliases ("mesh", "ba")
// are resolved to their canonical names, so ParseSpec(sys.Spec().JSON())
// rebuilds an equivalent system and equal systems produce equal specs.
type Spec struct {
	// Substrate names the interaction substrate; exactly one of its three
	// forms must be set.
	Substrate SubstrateSpec `json:"substrate"`
	// Colors is the palette size K (the color set is {1..K}).
	Colors int `json:"colors"`
	// Rule is a registered rule name.  Empty selects the default: "smp" on
	// tori, "generalized-smp" on graph substrates (and a literal "smp" on a
	// graph substrate resolves to "generalized-smp", exactly as the option
	// front end does).
	Rule string `json:"rule,omitempty"`
}

// SubstrateSpec describes an interaction substrate in exactly one of three
// forms: a registered torus topology with its dimensions, a registered graph
// generator with its parameters and seed, or an explicit edge list.
type SubstrateSpec struct {
	Topology  *TopologySpec  `json:"topology,omitempty"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
	Edges     *EdgeListSpec  `json:"edges,omitempty"`
}

// TopologySpec names a registered torus topology ("toroidal-mesh",
// "torus-cordalis", "torus-serpentinus" or any registered name or alias)
// with its lattice dimensions.
type TopologySpec struct {
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
}

// GeneratorSpec names a registered graph generator ("barabasi-albert",
// "watts-strogatz", "erdos-renyi", "random-regular", "ring" or any
// registered name or alias) with the vertex count, its named parameters and
// the seed.  Generators are deterministic in (n, params, seed), so the spec
// rebuilds the same graph everywhere.
type GeneratorSpec struct {
	Name   string             `json:"name"`
	N      int                `json:"n"`
	Params map[string]float64 `json:"params,omitempty"`
	Seed   uint64             `json:"seed,omitempty"`
}

// EdgeListSpec is the explicit-substrate escape hatch: n vertices and an
// undirected edge list.  It is how hand-built graphs (the Graph option)
// serialize.
type EdgeListSpec struct {
	N     int      `json:"n"`
	Edges [][2]int `json:"edges"`
}

// ParseSpec decodes a Spec from JSON, strictly: unknown fields, malformed
// values and structurally invalid specs (no substrate, two substrates,
// impossible sizes) are errors, never panics.  The result is validated but
// not yet instantiated; call Spec.New to build the System.
func ParseSpec(data []byte) (*Spec, error) {
	return parseStrict(data, "spec", (*Spec).Validate)
}

// parseStrict is every strict parser of the package: it decodes one JSON
// document of type T, rejecting unknown fields and trailing data, and then
// validates it.  Decode errors read "dynmon: parsing <what>: ...".
func parseStrict[T any](data []byte, what string, validate func(*T) error) (*T, error) {
	var v T
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&v); err != nil {
		return nil, fmt.Errorf("dynmon: parsing %s: %w", what, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("dynmon: trailing data after JSON document")
	}
	if err := validate(&v); err != nil {
		return nil, err
	}
	return &v, nil
}

// Validate checks the spec's structure without building anything: exactly
// one substrate form, plausible sizes, a known rule name (when set).
func (sp *Spec) Validate() error {
	forms := 0
	if sp.Substrate.Topology != nil {
		forms++
		t := sp.Substrate.Topology
		if t.Name == "" {
			return fmt.Errorf("dynmon: spec topology without a name")
		}
		if t.Rows < 2 || t.Cols < 2 {
			return fmt.Errorf("dynmon: spec topology %dx%d must be at least 2x2", t.Rows, t.Cols)
		}
	}
	if sp.Substrate.Generator != nil {
		forms++
		g := sp.Substrate.Generator
		if g.Name == "" {
			return fmt.Errorf("dynmon: spec generator without a name")
		}
		if g.N < 1 {
			return fmt.Errorf("dynmon: spec generator with %d vertices", g.N)
		}
	}
	if sp.Substrate.Edges != nil {
		forms++
		e := sp.Substrate.Edges
		if e.N < 1 {
			return fmt.Errorf("dynmon: spec edge list with %d vertices", e.N)
		}
		for _, edge := range e.Edges {
			u, v := edge[0], edge[1]
			if u < 0 || v < 0 || u >= e.N || v >= e.N {
				return fmt.Errorf("dynmon: spec edge {%d,%d} outside vertex range [0,%d)", u, v, e.N)
			}
			if u == v {
				return fmt.Errorf("dynmon: spec self-loop at vertex %d", u)
			}
		}
	}
	if forms != 1 {
		return fmt.Errorf("dynmon: spec substrate must have exactly one of topology, generator or edges (got %d)", forms)
	}
	if sp.Colors < 1 {
		return fmt.Errorf("dynmon: spec with %d colors (want at least 1)", sp.Colors)
	}
	return nil
}

// JSON renders the spec as indented JSON with a trailing newline, the
// canonical file form.
func (sp *Spec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(sp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Clone returns a deep copy of the spec.
func (sp *Spec) Clone() *Spec {
	out := *sp
	if t := sp.Substrate.Topology; t != nil {
		tc := *t
		out.Substrate.Topology = &tc
	}
	if g := sp.Substrate.Generator; g != nil {
		gc := *g
		gc.Params = maps.Clone(g.Params)
		out.Substrate.Generator = &gc
	}
	if e := sp.Substrate.Edges; e != nil {
		ec := *e
		ec.Edges = slices.Clone(e.Edges)
		out.Substrate.Edges = &ec
	}
	return &out
}

// Canonical returns the canonicalized form of the spec without building a
// System: registry aliases are resolved to canonical names ("mesh" →
// "toroidal-mesh", "ba" → "barabasi-albert"), the default rule is made
// explicit (see ruleName), and explicit edge lists are oriented (u < v),
// deduplicated and sorted.  Spec.New builds exactly this spec, and
// System.Spec returns it, so two specs denote the same system if and only
// if their canonical JSON forms are equal.
func (sp *Spec) Canonical() (*Spec, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	out := sp.Clone()
	switch {
	case sp.Substrate.Topology != nil:
		t := sp.Substrate.Topology
		topo, err := grid.ByName(t.Name, t.Rows, t.Cols)
		if err != nil {
			return nil, err
		}
		out.Substrate.Topology.Name = topo.Name()
	case sp.Substrate.Generator != nil:
		name, err := graphs.CanonicalGeneratorName(sp.Substrate.Generator.Name)
		if err != nil {
			return nil, err
		}
		out.Substrate.Generator.Name = name
	default:
		out.Substrate.Edges.Edges = canonicalEdges(sp.Substrate.Edges.Edges)
	}
	out.Rule = ruleName(sp.Rule, sp.Substrate.Topology == nil)
	if _, err := rules.ByName(out.Rule); err != nil {
		return nil, err
	}
	return out, nil
}

// ruleName is the rule a substrate runs when a spec or Config names rule:
// the empty name selects "smp" on tori, and on graph substrates both the
// empty name and "smp" select "generalized-smp", the degree-aware form of
// the same protocol.  On 4-regular substrates the two are bit-identical
// (pinned by differential tests); on irregular graphs only the generalized
// form has the intended ⌈d/2⌉ majority.
func ruleName(rule string, graph bool) string {
	switch {
	case graph && (rule == "" || rule == "smp"):
		return "generalized-smp"
	case rule == "":
		return "smp"
	}
	return rule
}

// canonicalEdges returns an edge list oriented (u < v), sorted and free of
// duplicates.  A graph built from it in order lists every vertex's
// neighbors in ascending order.
func canonicalEdges(edges [][2]int) [][2]int {
	out := make([][2]int, 0, len(edges))
	for _, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return slices.Compact(out)
}

// Digest returns a stable content address of the spec: "sha256:" plus the
// hex SHA-256 of the canonical compact JSON form.  Alias forms collide —
// Digest canonicalizes first — so two specs share a digest exactly when they
// denote the same system.  Because every run is a pure function of its spec,
// the digest is a sound cache key for results: same digest ⇒ same system ⇒
// same result.  (The address is canonical-JSON-level, not graph-isomorphism-
// level: a generator spec that spells out a generator's default parameters
// digests differently from one that omits them.)
func (sp *Spec) Digest() (string, error) {
	canonical, err := sp.Canonical()
	if err != nil {
		return "", err
	}
	return digestOf(canonical)
}

// digestOf hashes a value's compact JSON form.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// New instantiates the System the spec describes: it builds the canonical
// spec (Spec.Canonical) and nothing else, so System.Spec is the exact
// inverse and equal digests build equal systems.  New (functional options)
// and NewFromConfig reduce to it whenever no pre-built instances are
// involved.
func (sp *Spec) New() (*System, error) {
	c, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	rule, err := rules.ByName(c.Rule)
	if err != nil {
		return nil, err
	}
	return c.build(rule, c)
}

// build instantiates the substrate of sp, a canonical spec, and runs rule
// over it; spec is what System.Spec reports, nil for a rule instance.
func (sp *Spec) build(rule Rule, spec *Spec) (*System, error) {
	switch {
	case sp.Substrate.Topology != nil:
		t := sp.Substrate.Topology
		topo, err := grid.ByName(t.Name, t.Rows, t.Cols)
		if err != nil {
			return nil, err
		}
		return newSystem(topo, nil, sp.Colors, rule, spec)
	case sp.Substrate.Generator != nil:
		g := sp.Substrate.Generator
		graph, err := graphs.GenerateByName(g.Name, g.N, g.Params, g.Seed)
		if err != nil {
			return nil, err
		}
		return newSystem(nil, graph, sp.Colors, rule, spec)
	default:
		e := sp.Substrate.Edges
		return newSystem(nil, graphs.FromEdges(e.N, e.Edges), sp.Colors, rule, spec)
	}
}

// newSystem is the tail of every constructor: the palette and the engine
// over the torus topo or, when it is non-nil, the graph.
func newSystem(topo Topology, graph *GeneralGraph, colors int, rule Rule, spec *Spec) (*System, error) {
	p, err := color.NewPalette(colors)
	if err != nil {
		return nil, err
	}
	s := &System{topo: topo, graph: graph, palette: p, rule: rule, spec: spec}
	if graph != nil {
		s.engine = graph.EngineFor(rule)
	} else {
		s.engine = sim.NewEngine(topo, rule)
	}
	return s, nil
}

// edgeListOf serializes a graph's structure as a canonical edge list.
func edgeListOf(g *GeneralGraph) *EdgeListSpec {
	var edges [][2]int
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	return &EdgeListSpec{N: g.N(), Edges: canonicalEdges(edges)}
}

// Spec returns the declarative description of the system — the exact
// inverse of Spec.New.  Systems built from specs, names or registered
// generators return the canonical spec they were built from.  A system
// built with a rule instance (WithRuleInstance) is described by the rule's
// name when the instance is indistinguishable from its registry entry, and
// a hand-built graph (Graph) serializes as an explicit edge list.  An error
// means the system genuinely has no faithful wire form — e.g. an
// unregistered rule implementation or a rule instance with non-default
// parameters.
func (s *System) Spec() (*Spec, error) {
	if s.spec != nil {
		return s.spec.Clone(), nil
	}
	sp := &Spec{Colors: s.palette.K}

	name := s.rule.Name()
	registered, err := rules.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("dynmon: system rule %q is not registered; register it to make the system spec-serializable", name)
	}
	if !reflect.DeepEqual(registered, s.rule) {
		return nil, fmt.Errorf("dynmon: system rule %q differs from its registry entry (non-default parameters?); a spec cannot describe it faithfully", name)
	}
	sp.Rule = name

	if s.graph != nil {
		sp.Substrate.Edges = edgeListOf(s.graph)
		return sp, nil
	}
	d := s.topo.Dims()
	sp.Substrate.Topology = &TopologySpec{Name: s.topo.Name(), Rows: d.Rows, Cols: d.Cols}
	return sp, nil
}

// RegisterGenerator makes a graph generator resolvable in GeneratorSpec
// names (canonical name first, then aliases).  The factory must be
// deterministic in (n, params, seed) and must reject unknown parameter
// names.  Registering a taken name panics.
func RegisterGenerator(factory func(n int, params map[string]float64, seed uint64) (*GeneralGraph, error), names ...string) {
	graphs.RegisterGenerator(graphs.GenFactory(factory), names...)
}

// GeneratorNames returns every generator name specs accept, sorted,
// including aliases and externally registered generators.
func GeneratorNames() []string { return graphs.GeneratorNames() }

// InitialSpec describes an initial configuration declaratively: either a
// named construction family with a size and seed, or explicit cells.  It is
// the third leg of a spec file — system, initial, run — and the library
// form of the CLI tools' -config flag.
type InitialSpec struct {
	// Config names a construction family.  On tori: "minimum" (the paper's
	// tight construction), "cross", "comb", "blocked", "frozen", "random",
	// "bernoulli".  On graphs: "hubs" (top Size vertices by degree), "random"
	// (Size uniform vertices), "greedy" (the simulation-driven greedy
	// baseline, Size seeds), "bernoulli".  Empty means Cells carries the
	// configuration explicitly.
	Config string `json:"config,omitempty"`
	// Size parameterizes the graph families (seed-set size); 0 selects 8.
	Size int `json:"size,omitempty"`
	// Seed drives the random families, deterministic per seed.
	Seed uint64 `json:"seed,omitempty"`
	// Density is the "bernoulli" family's per-vertex target probability:
	// every vertex is seeded with the target color independently with
	// probability Density, otherwise with a uniform draw among the other
	// palette colors.  It is the natural axis for takeover-probability
	// ensembles.  Other families ignore it.
	Density float64 `json:"density,omitempty"`
	// Cells is the explicit configuration (wire form of a Coloring: rows,
	// cols, row-major cells), used when Config is empty.
	Cells *Coloring `json:"cells,omitempty"`
}

// BuildInitial realizes an initial configuration on this system: the
// construction (with its name and, for torus families, the theorem-condition
// metadata) plus the coloring itself.  target is the color the construction
// seeds (graph families also need a background color and use the first
// palette color distinct from target).
func (s *System) BuildInitial(ispec *InitialSpec, target Color) (*Construction, error) {
	cons, err := s.construct(ispec, target)
	if err != nil {
		return nil, err
	}
	if cons.Seed == nil {
		cons.Seed = cons.Coloring.Vertices(target)
	}
	return cons, nil
}

// construct is BuildInitial without the seed list of the families that
// would only read it back off the coloring (Seed stays nil); the named
// theorem constructions carry theirs.  Ensembles build one coloring per
// replica through it and read nothing else.
func (s *System) construct(ispec *InitialSpec, target Color) (*Construction, error) {
	if ispec == nil {
		return nil, fmt.Errorf("dynmon: nil initial spec")
	}
	if ispec.Cells != nil {
		if ispec.Config != "" {
			return nil, fmt.Errorf("dynmon: initial spec has both a named config %q and explicit cells", ispec.Config)
		}
		if ispec.Cells.Dims() != s.Dims() {
			return nil, fmt.Errorf("dynmon: initial cells are %v, system is %v", ispec.Cells.Dims(), s.Dims())
		}
		c := ispec.Cells.Clone()
		return s.wrapConstruction(c, "explicit", target), nil
	}
	if ispec.Config == "" {
		return nil, fmt.Errorf("dynmon: initial spec needs a named config or explicit cells")
	}
	if s.graph != nil {
		return s.buildGraphInitial(ispec, target)
	}
	return s.buildTorusInitial(ispec, target)
}

// wrapConstruction packages a plain coloring as a Construction for uniform
// reporting.
func (s *System) wrapConstruction(c *Coloring, name string, target Color) *Construction {
	return &Construction{
		Name:     name,
		Topology: s.topo,
		Target:   target,
		Palette:  s.palette,
		Coloring: c,
	}
}

// buildTorusInitial realizes the torus construction families.
func (s *System) buildTorusInitial(ispec *InitialSpec, target Color) (*Construction, error) {
	d := s.Dims()
	palette := s.palette
	switch ispec.Config {
	case "cross", "blocked", "frozen":
		if s.topo.Kind() != grid.KindToroidalMesh {
			return nil, fmt.Errorf("dynmon: config %q is defined on the toroidal mesh", ispec.Config)
		}
	}
	switch ispec.Config {
	case "minimum":
		return s.MinimumDynamo(target)
	case "cross":
		if palette.K >= 4 {
			return dynamo.FullCross(d.Rows, d.Cols, target, palette)
		}
		// Two- and three-color crosses are used by the rule-comparison runs.
		c := s.NewColoring(palette.Others(target)[0])
		c.FillRow(0, target)
		c.FillCol(0, target)
		return s.wrapConstruction(c, "two-color-cross", target), nil
	case "comb":
		return dynamo.CombUpperBound(s.topo.Kind(), d.Rows, d.Cols, target, palette)
	case "blocked":
		return dynamo.BlockedCross(d.Rows, d.Cols, target, palette)
	case "frozen":
		return dynamo.FrozenTiling(d.Rows, d.Cols, target, palette)
	case "random":
		return s.wrapConstruction(s.RandomColoring(ispec.Seed), "random", target), nil
	case "bernoulli":
		c, err := s.bernoulliColoring(ispec.Density, ispec.Seed, target)
		if err != nil {
			return nil, err
		}
		return s.wrapConstruction(c, "bernoulli", target), nil
	default:
		return nil, fmt.Errorf("dynmon: unknown torus config %q (want minimum, cross, comb, random, bernoulli, blocked or frozen)", ispec.Config)
	}
}

// bernoulliColoring seeds every vertex independently: the target color with
// probability density, otherwise a uniform draw among the other palette
// colors.  Draws are counter-based on (seed, vertex), so the configuration
// is a pure function of the spec — the same on any substrate representation
// and trivially shardable by ensembles that perturb only the seed.  The
// target draw is bernoulliDraw, which bernoulliLanes shares.
func (s *System) bernoulliColoring(density float64, seed uint64, target Color) (*Coloring, error) {
	if !(density >= 0 && density <= 1) { // also rejects NaN
		return nil, fmt.Errorf("dynmon: bernoulli density %v outside [0, 1]", density)
	}
	others := s.palette.Others(target)
	if len(others) == 0 {
		return nil, fmt.Errorf("dynmon: the bernoulli config needs a palette color distinct from the target; use 2 or more colors")
	}
	c := s.NewColoring(others[0])
	pre, thresh := rng.NewPrefix(seed), rng.UnitThreshold(density)
	n := c.Dims().N()
	for v := 0; v < n; v++ {
		pv := pre.Then(uint64(v))
		if bernoulliDraw(pv, thresh) == 1 {
			c.Set(v, target)
			continue
		}
		if len(others) > 1 {
			c.Set(v, others[pv.Then(2).Sum()%uint64(len(others))])
		}
	}
	return c, nil
}

// bernoulliDraw is the bernoulli family's target draw at vertex v of a
// replica, given pv, the replica's seed prefix with v folded in: 1 when
// rng.Unit(rng.Hash(seed, v, 1)) < density, for thresh =
// rng.UnitThreshold(density), else 0.
func bernoulliDraw(pv rng.Prefix, thresh uint64) uint64 {
	return rng.UnitBelow(pv.Then(1).Sum(), thresh)
}

// laneDrawn reports whether bernoulliLanes can draw replicas of ispec: the
// bernoulli family without explicit cells on the palette {1, 2} with the
// target in it, where each vertex is a single draw.
func (s *System) laneDrawn(ispec *InitialSpec, target Color) bool {
	return ispec.Config == "bernoulli" && ispec.Cells == nil && s.palette.K == 2 && (target == 1 || target == 2)
}

// bernoulliLanes is the lane fill of the bernoulli replicas seeded seeds
// (at most color.MaxLanes): it writes the words color.PackLanes would for
// their bernoulliColorings, with no coloring built, and reports true.
// ispec must pass laneDrawn, its density lie in [0, 1] (as
// EnsembleSpec.Validate checks).
func bernoulliLanes(ispec *InitialSpec, target Color, seeds []uint64, words []uint64) bool {
	var prefixes [color.MaxLanes]rng.Prefix
	pre := prefixes[:len(seeds)]
	for r, seed := range seeds {
		pre[r] = rng.NewPrefix(seed)
	}
	thresh := rng.UnitThreshold(ispec.Density)
	for v := range words {
		key := rng.Key(uint64(v))
		var hit uint64
		for r := range pre {
			hit |= bernoulliDraw(pre[r].ThenKey(key), thresh) << uint(r)
		}
		words[v] = color.LaneWord(hit, target, 3-target, len(pre))
	}
	return true
}

// buildGraphInitial realizes the graph seeding families.
func (s *System) buildGraphInitial(ispec *InitialSpec, target Color) (*Construction, error) {
	others := s.palette.Others(target)
	if len(others) == 0 {
		return nil, fmt.Errorf("dynmon: graph configs need a background color distinct from the target; use 2 or more colors")
	}
	background := others[0]
	size := ispec.Size
	if size <= 0 {
		size = 8
	}
	if ispec.Config == "bernoulli" {
		c, err := s.bernoulliColoring(ispec.Density, ispec.Seed, target)
		if err != nil {
			return nil, err
		}
		return &Construction{
			Name:     "bernoulli",
			Target:   target,
			Palette:  s.palette,
			Coloring: c,
		}, nil
	}
	var c *Coloring
	switch ispec.Config {
	case "hubs":
		c = s.SeedTopByDegree(size, target, background)
	case "random":
		c = s.SeedRandom(size, target, background, ispec.Seed)
	case "greedy":
		seeds := s.TargetSet(TargetSetSpec{
			Target:          target,
			Background:      background,
			MaxSeed:         size,
			CandidateSample: 30,
			Seed:            ispec.Seed,
		})
		c = s.NewColoring(background)
		for _, v := range seeds {
			c.Set(v, target)
		}
	default:
		return nil, fmt.Errorf("dynmon: unknown graph config %q (want hubs, random, greedy or bernoulli)", ispec.Config)
	}
	return &Construction{
		Name:     ispec.Config,
		Target:   target,
		Palette:  s.palette,
		Coloring: c,
	}, nil
}

// FileSpec is the complete declarative description of one run — the format
// of spec files (-spec on the CLI tools): a system, an optional initial
// configuration and the run options.  Initial may be omitted by tools that
// only need the system (dynamosearch).
type FileSpec struct {
	System  Spec         `json:"system"`
	Initial *InitialSpec `json:"initial,omitempty"`
	Run     RunSpec      `json:"run"`
}

// ParseFileSpec decodes a spec file, strictly (unknown fields are errors).
// A bare Spec document — one with a top-level "substrate" instead of a
// "system" — is accepted too and wrapped in a FileSpec with empty initial
// and run sections.
func ParseFileSpec(data []byte) (*FileSpec, error) {
	var probe struct {
		Substrate *json.RawMessage `json:"substrate"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, fmt.Errorf("dynmon: parsing spec file: %w", err)
	}
	if probe.Substrate != nil {
		sp, err := ParseSpec(data)
		if err != nil {
			return nil, err
		}
		return &FileSpec{System: *sp}, nil
	}
	return parseStrict(data, "spec file", func(fs *FileSpec) error { return fs.System.Validate() })
}

// JSON renders the spec file as indented JSON with a trailing newline.
func (fs *FileSpec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(fs, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Build instantiates the run the spec file describes: the system, the
// initial construction and the effective target color (Run.Target, with the
// paper's color 1 as the default).  It is the one construction path shared
// by every spec-file consumer — the CLI tools and the dynserve HTTP server —
// so "the run a spec file denotes" cannot drift between them.  Spec files
// without an initial section are an error here; callers that only need the
// system use System.New directly.
func (fs *FileSpec) Build() (*System, *Construction, Color, error) {
	sys, err := fs.System.New()
	if err != nil {
		return nil, nil, None, err
	}
	target := fs.Run.Target
	if target == None {
		target = 1
	}
	if fs.Initial == nil {
		return nil, nil, None, fmt.Errorf("dynmon: spec file has no initial section")
	}
	cons, err := sys.BuildInitial(fs.Initial, target)
	if err != nil {
		return nil, nil, None, err
	}
	return sys, cons, target, nil
}

// Digest returns a stable content address of the complete run the file
// describes: "sha256:" plus the hex SHA-256 of the compact JSON of the
// canonicalized system spec, the initial spec and the run spec's wire fields
// (process-local attachments — observers, custom availability models, buffer
// knobs — do not serialize and do not contribute).  Runs are deterministic
// functions of exactly this triple, so equal digests imply byte-identical
// terminal Results — the contract the dynserve result cache is built on.
func (fs *FileSpec) Digest() (string, error) {
	system, err := fs.System.Canonical()
	if err != nil {
		return "", err
	}
	canonical := FileSpec{System: *system, Initial: fs.Initial, Run: fs.Run.wireClone()}
	return digestOf(&canonical)
}
