package dynamo

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
)

// Construction is an initial configuration built around a k-colored seed Sk,
// ready to be simulated.
type Construction struct {
	// Name identifies the construction in experiment tables.
	Name string
	// Topology is the torus the construction lives on.
	Topology grid.Topology
	// Target is the color k that the seed tries to spread.
	Target color.Color
	// Palette is the color set of the configuration.
	Palette color.Palette
	// Seed lists the vertices of Sk (dense indices, increasing).
	Seed []int
	// Coloring is the complete initial configuration: the seed vertices
	// carry Target, every other vertex carries a padding color.
	Coloring *color.Coloring
}

// SeedSize returns |Sk|.
func (c *Construction) SeedSize() int { return len(c.Seed) }

// seedOnly builds a coloring with exactly the given vertices set to k and
// the rest unset, plus the sorted seed list.
func seedOnly(d grid.Dims, k color.Color, vertices map[int]bool) (*color.Coloring, []int) {
	c := color.NewColoring(d, color.None)
	seed := make([]int, 0, len(vertices))
	for v := 0; v < d.N(); v++ {
		if vertices[v] {
			c.Set(v, k)
			seed = append(seed, v)
		}
	}
	return c, seed
}

// padSeed completes a seed coloring with SolvePadding and assembles the
// Construction.
func padSeed(name string, topo grid.Topology, seed *color.Coloring, seedList []int, k color.Color, p color.Palette, src *rng.Source) (*Construction, error) {
	full, err := SolvePadding(topo, seed, k, p, src, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &Construction{
		Name:     name,
		Topology: topo,
		Target:   k,
		Palette:  p,
		Seed:     seedList,
		Coloring: full,
	}, nil
}

// validateArgs performs the common parameter validation of all
// constructors.
func validateArgs(dims grid.Dims, k color.Color, p color.Palette, minColors int) error {
	if !p.Contains(k) {
		return fmt.Errorf("dynamo: target color %v outside palette %v", k, p)
	}
	if p.K < minColors {
		return fmt.Errorf("dynamo: construction needs at least %d colors, palette has %d", minColors, p.K)
	}
	if dims.Rows < 2 || dims.Cols < 2 {
		return fmt.Errorf("dynamo: torus must be at least 2x2, got %v", dims)
	}
	return nil
}

// FullCross builds the Figure-5 configuration on a toroidal mesh: row 0 and
// column 0 entirely k-colored (size m+n-1, one more than the lower bound)
// with a cyclic padding outside.  It is the configuration whose recoloring
// times the paper tabulates in Figure 5 and whose round count matches
// Theorem 7 exactly.
func FullCross(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if err := validateArgs(dims, k, p, 4); err != nil {
		return nil, err
	}
	topo := grid.MustNew(grid.KindToroidalMesh, m, n)
	vertices := make(map[int]bool)
	for j := 0; j < n; j++ {
		vertices[dims.IndexRC(0, j)] = true
	}
	for i := 0; i < m; i++ {
		vertices[dims.IndexRC(i, 0)] = true
	}
	seed, seedList := seedOnly(dims, k, vertices)
	return padSeed("full-cross", topo, seed, seedList, k, p, rng.New(uint64(m*1000+n)))
}

// MeshMinimum builds the Theorem 2 configuration on a toroidal mesh: Sk is a
// full column plus a row with one vertex removed (or, symmetrically, a full
// row plus a column with one vertex removed), |Sk| = m+n-2, which matches
// the Theorem 1 lower bound.  The padding satisfies the theorem's hypotheses
// (every other color class a forest, no vertex seeing a repeated "other"
// color).  Requires at least four colors and m, n >= 3.
//
// The padding is built analytically from a window-3 rainbow row (or column)
// sequence whenever such a sequence exists for the palette; otherwise the
// randomized solver is used.  With four colors the analytic pattern exists
// unless both m ≡ 2 and n ≡ 2 (mod 3); see DESIGN.md.
func MeshMinimum(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if err := validateArgs(dims, k, p, 4); err != nil {
		return nil, err
	}
	if m < 3 || n < 3 {
		return nil, fmt.Errorf("dynamo: MeshMinimum requires m, n >= 3 (got %dx%d)", m, n)
	}
	topo := grid.MustNew(grid.KindToroidalMesh, m, n)
	others := p.Others(k)

	// Row-oriented variant: seed = column 0 plus row 0 minus (0, n-1),
	// padding constant per row.
	rowSeed := func() (*color.Coloring, []int) {
		vertices := make(map[int]bool)
		for i := 0; i < m; i++ {
			vertices[dims.IndexRC(i, 0)] = true
		}
		for j := 1; j < n-1; j++ {
			vertices[dims.IndexRC(0, j)] = true
		}
		return seedOnly(dims, k, vertices)
	}
	if seq, corner, ok := PathRainbowSequence(m-1, others); ok {
		seed, seedList := rowSeed()
		full := seed.Clone()
		full.SetRC(0, n-1, corner)
		FillRowSequence(full, seq)
		if c, err := finishStructured("mesh-minimum", topo, full, seedList, k, p); err == nil {
			return c, nil
		}
	}
	// Column-oriented variant: seed = row 0 plus column 0 minus (m-1, 0),
	// padding constant per column.
	if seq, corner, ok := PathRainbowSequence(n-1, others); ok {
		vertices := make(map[int]bool)
		for j := 0; j < n; j++ {
			vertices[dims.IndexRC(0, j)] = true
		}
		for i := 1; i < m-1; i++ {
			vertices[dims.IndexRC(i, 0)] = true
		}
		seed, seedList := seedOnly(dims, k, vertices)
		full := seed.Clone()
		full.SetRC(m-1, 0, corner)
		FillColSequence(full, seq)
		if c, err := finishStructured("mesh-minimum", topo, full, seedList, k, p); err == nil {
			return c, nil
		}
	}
	// Fallback: randomized greedy padding on the row-oriented seed.
	seed, seedList := rowSeed()
	return padSeed("mesh-minimum", topo, seed, seedList, k, p, rng.New(uint64(m*2000+n)))
}

// CordalisMinimum builds the Theorem 4 configuration on a torus cordalis:
// Sk is the whole of row 0 plus the single vertex (1, 0), |Sk| = n+1, which
// matches the Theorem 3 lower bound.  Requires at least four colors and
// m >= 4, n >= 3.
func CordalisMinimum(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if err := validateArgs(dims, k, p, 4); err != nil {
		return nil, err
	}
	if m < 4 || n < 3 {
		return nil, fmt.Errorf("dynamo: CordalisMinimum requires m >= 4 and n >= 3, got %dx%d", m, n)
	}
	topo := grid.MustNew(grid.KindTorusCordalis, m, n)
	vertices := make(map[int]bool)
	for j := 0; j < n; j++ {
		vertices[dims.IndexRC(0, j)] = true
	}
	vertices[dims.IndexRC(1, 0)] = true
	seed, seedList := seedOnly(dims, k, vertices)

	// The structured padding assigns one color per column following a cyclic
	// window-3 rainbow sequence; the generic solver is the fallback (for
	// example n = 5 with fewer than six colors has no such sequence).
	others := p.Others(k)
	if seq, ok := CycleRainbowSequence(n, others); ok {
		full := seed.Clone()
		FillColSequenceAll(full, seq)
		if c, err := finishStructured("cordalis-minimum", topo, full, seedList, k, p); err == nil {
			return c, nil
		}
	}
	return padSeed("cordalis-minimum", topo, seed, seedList, k, p, rng.New(uint64(m*3000+n)))
}

// SerpentinusMinimum builds the Theorem 6 configuration on a torus
// serpentinus: when n <= m the seed is the whole of row 0 plus vertex (1,0)
// (|Sk| = n+1); when m < n the seed is the whole of column 0 plus vertex
// (0,1) (|Sk| = m+1).  Both match the Theorem 5 lower bound min(m,n)+1.
// Requires at least four colors and min(m,n) >= 3, max(m,n) >= 4.
func SerpentinusMinimum(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if err := validateArgs(dims, k, p, 4); err != nil {
		return nil, err
	}
	if dims.Min() < 3 || (m < 4 && n < 4) {
		return nil, fmt.Errorf("dynamo: SerpentinusMinimum requires min(m,n) >= 3 and max(m,n) >= 4, got %dx%d", m, n)
	}
	topo := grid.MustNew(grid.KindTorusSerpentinus, m, n)
	vertices := make(map[int]bool)
	if n <= m {
		for j := 0; j < n; j++ {
			vertices[dims.IndexRC(0, j)] = true
		}
		vertices[dims.IndexRC(1, 0)] = true
	} else {
		for i := 0; i < m; i++ {
			vertices[dims.IndexRC(i, 0)] = true
		}
		vertices[dims.IndexRC(0, 1)] = true
	}
	seed, seedList := seedOnly(dims, k, vertices)
	others := p.Others(k)
	if n <= m {
		if seq, ok := CycleRainbowSequence(n, others); ok {
			full := seed.Clone()
			FillColSequenceAll(full, seq)
			if c, err := finishStructured("serpentinus-minimum", topo, full, seedList, k, p); err == nil {
				return c, nil
			}
		}
	} else {
		if seq, ok := CycleRainbowSequence(m, others); ok {
			full := seed.Clone()
			FillRowSequenceAll(full, seq)
			if c, err := finishStructured("serpentinus-minimum", topo, full, seedList, k, p); err == nil {
				return c, nil
			}
		}
	}
	return padSeed("serpentinus-minimum", topo, seed, seedList, k, p, rng.New(uint64(m*4000+n)))
}

// finishStructured validates a structured (cyclic) padding and wraps it into
// a Construction; it returns an error when the padding violates the
// tight-construction hypotheses so the caller can fall back to the solver.
func finishStructured(name string, topo grid.Topology, full *color.Coloring, seedList []int, k color.Color, p color.Palette) (*Construction, error) {
	if err := checkConstruction(topo, full, k); err != nil {
		return nil, err
	}
	return &Construction{
		Name:     name,
		Topology: topo,
		Target:   k,
		Palette:  p,
		Seed:     seedList,
		Coloring: full,
	}, nil
}

// Minimum dispatches to the tight construction for the given topology kind.
func Minimum(kind grid.Kind, m, n int, k color.Color, p color.Palette) (*Construction, error) {
	switch kind {
	case grid.KindToroidalMesh:
		return MeshMinimum(m, n, k, p)
	case grid.KindTorusCordalis:
		return CordalisMinimum(m, n, k, p)
	case grid.KindTorusSerpentinus:
		return SerpentinusMinimum(m, n, k, p)
	default:
		return nil, fmt.Errorf("dynamo: unknown topology kind %v", kind)
	}
}

// Figure1 builds a configuration in the spirit of the paper's Figure 1: a
// monotone dynamo of size m+n-2 on a 9x9 toroidal mesh (the figure's stated
// size 16 corresponds to m = n = 9).
func Figure1(k color.Color, p color.Palette) (*Construction, error) {
	c, err := MeshMinimum(9, 9, k, p)
	if err != nil {
		return nil, err
	}
	c.Name = "figure-1"
	return c, nil
}

// CombUpperBound builds the comb-shaped dynamo derived from Proposition 2
// and Theorem 16 of [15]: Sk contains every even-indexed row entirely plus
// one vertex in every odd-indexed row, so that the non-seed vertices form a
// forest of horizontal paths whose endpoints see three k-colored neighbors.
// The seed has size about half the torus — the "trivial" upper bound the
// paper contrasts with its tight constructions — and is a monotone dynamo
// under both the SMP-Protocol and the reverse strong majority rule.
func CombUpperBound(kind grid.Kind, m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if err := validateArgs(dims, k, p, 2); err != nil {
		return nil, err
	}
	if m%2 != 0 {
		return nil, fmt.Errorf("dynamo: CombUpperBound requires an even number of rows, got %d", m)
	}
	topo := grid.MustNew(kind, m, n)
	vertices := make(map[int]bool)
	for i := 0; i < m; i += 2 {
		for j := 0; j < n; j++ {
			vertices[dims.IndexRC(i, j)] = true
		}
	}
	for i := 1; i < m; i += 2 {
		vertices[dims.IndexRC(i, 0)] = true
	}
	seed, seedList := seedOnly(dims, k, vertices)
	// Any coloring of the remaining vertices works: each odd row is a path
	// whose endpoints have three seed neighbors.  Use a cyclic padding for
	// reproducibility; it does not need to satisfy the tight conditions.
	others := p.Others(k)
	full := seed.Clone()
	FillCyclicRows(full, others, minInt(3, len(others)))
	return &Construction{
		Name:     "comb-upper-bound",
		Topology: topo,
		Target:   k,
		Palette:  p,
		Seed:     seedList,
		Coloring: full,
	}, nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
