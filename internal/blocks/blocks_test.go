package blocks

import (
	"testing"
	"testing/quick"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

func mesh(m, n int) grid.Topology { return grid.MustNew(grid.KindToroidalMesh, m, n) }

// KBlocks returns the k-blocks of the coloring: the connected components of
// the 2-core of the k-colored induced subgraph (Definition 4).
func KBlocks(topo grid.Topology, c *color.Coloring, k color.Color) [][]int {
	members := make([]bool, c.N())
	for v := 0; v < c.N(); v++ {
		members[v] = c.At(v) == k
	}
	return components(topo, core(topo, members, 2))
}

// HasKBlock reports whether the coloring contains at least one k-block.
func HasKBlock(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	return len(KBlocks(topo, c, k)) > 0
}

// OtherColorBlocks returns, for every color k' != k present in the coloring,
// the k'-blocks.  The tight constructions require there to be none
// (otherwise the k' vertices would never recolor).
func OtherColorBlocks(topo grid.Topology, c *color.Coloring, k color.Color) map[color.Color][][]int {
	out := make(map[color.Color][][]int)
	for col := range c.Counts() {
		if col == k || col == color.None {
			continue
		}
		if bs := KBlocks(topo, c, col); len(bs) > 0 {
			out[col] = bs
		}
	}
	return out
}

func TestKBlocksSingleColumnInMesh(t *testing.T) {
	// A single k-colored column is a k-block in a toroidal mesh (the column
	// wraps vertically, so every vertex has two in-set neighbors).
	c := color.NewColoring(grid.MustDims(5, 5), 2)
	c.FillCol(1, 1)
	bs := KBlocks(mesh(5, 5), c, 1)
	if len(bs) != 1 {
		t.Fatalf("expected 1 block, got %d", len(bs))
	}
	if len(bs[0]) != 5 {
		t.Errorf("block size = %d, want 5", len(bs[0]))
	}
}

func TestSingleColumnNotABlockInSerpentinus(t *testing.T) {
	// The paper notes a single column is a k-block in a toroidal mesh and a
	// torus cordalis but NOT in a torus serpentinus (the vertical wrap leaves
	// the column), whereas two consecutive columns are a block in all tori.
	c := color.NewColoring(grid.MustDims(5, 5), 2)
	c.FillCol(1, 1)
	if HasKBlock(grid.MustNew(grid.KindTorusSerpentinus, 5, 5), c, 1) {
		t.Error("single column should not be a block in the serpentinus")
	}
	if !HasKBlock(grid.MustNew(grid.KindTorusCordalis, 5, 5), c, 1) {
		t.Error("single column should be a block in the cordalis")
	}
	c2 := color.NewColoring(grid.MustDims(5, 5), 2)
	c2.FillCol(1, 1)
	c2.FillCol(2, 1)
	for _, kind := range grid.Kinds() {
		if !HasKBlock(grid.MustNew(kind, 5, 5), c2, 1) {
			t.Errorf("two consecutive columns should be a block in %v", kind)
		}
	}
}

func TestSingleRowBlockOnlyInMesh(t *testing.T) {
	// A single row is a k-block in a toroidal mesh but not in a torus
	// cordalis or serpentinus (the horizontal wrap leaves the row); two
	// consecutive rows are a block in all tori.
	c := color.NewColoring(grid.MustDims(5, 6), 2)
	c.FillRow(2, 1)
	if !HasKBlock(mesh(5, 6), c, 1) {
		t.Error("single row should be a block in the mesh")
	}
	if HasKBlock(grid.MustNew(grid.KindTorusCordalis, 5, 6), c, 1) {
		t.Error("single row should not be a block in the cordalis")
	}
	if HasKBlock(grid.MustNew(grid.KindTorusSerpentinus, 5, 6), c, 1) {
		t.Error("single row should not be a block in the serpentinus")
	}
	c.FillRow(3, 1)
	for _, kind := range grid.Kinds() {
		if !HasKBlock(grid.MustNew(kind, 5, 6), c, 1) {
			t.Errorf("two consecutive rows should be a block in %v", kind)
		}
	}
}

func TestTwoByTwoSquareIsABlock(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 2)
	for _, p := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}} {
		c.SetRC(p[0], p[1], 1)
	}
	bs := KBlocks(mesh(6, 6), c, 1)
	if len(bs) != 1 || len(bs[0]) != 4 {
		t.Fatalf("2x2 square should be one block of size 4, got %v", bs)
	}
}

func TestIsolatedAndPathVerticesAreNotBlocks(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 2)
	c.SetRC(1, 1, 1) // isolated
	c.SetRC(3, 1, 1) // path of three
	c.SetRC(3, 2, 1)
	c.SetRC(3, 3, 1)
	if HasKBlock(mesh(6, 6), c, 1) {
		t.Error("isolated vertices and open paths must not form blocks")
	}
}

func TestKBlocksMultipleComponents(t *testing.T) {
	c := color.NewColoring(grid.MustDims(8, 8), 2)
	for _, p := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		c.SetRC(p[0], p[1], 1)
	}
	for _, p := range [][2]int{{5, 5}, {5, 6}, {6, 5}, {6, 6}} {
		c.SetRC(p[0], p[1], 1)
	}
	bs := KBlocks(mesh(8, 8), c, 1)
	if len(bs) != 2 {
		t.Fatalf("expected 2 blocks, got %d", len(bs))
	}
	for _, b := range bs {
		if len(b) != 4 {
			t.Errorf("block size = %d, want 4", len(b))
		}
	}
}

func TestBlockVerticesNeverRecolorUnderSMP(t *testing.T) {
	// Definition 4's consequence: vertices in a k-block keep color k under
	// the SMP-Protocol because at most two neighbors can disagree.
	// Verified structurally: every block vertex has at least 2 in-block
	// neighbors.
	c := color.NewColoring(grid.MustDims(7, 7), 2)
	c.FillCol(3, 1)
	topo := mesh(7, 7)
	for _, block := range KBlocks(topo, c, 1) {
		inBlock := map[int]bool{}
		for _, v := range block {
			inBlock[v] = true
		}
		for _, v := range block {
			cnt := 0
			for _, u := range grid.UniqueNeighbors(topo, v) {
				if inBlock[u] {
					cnt++
				}
			}
			if cnt < 2 {
				t.Fatalf("block vertex %d has only %d in-block neighbors", v, cnt)
			}
		}
	}
}

func TestNonKBlocksTwoRowsInMesh(t *testing.T) {
	// Two consecutive rows of non-k vertices form a non-k-block in the
	// toroidal mesh: every vertex keeps 3 neighbors inside (left, right and
	// the vertical partner).
	c := color.NewColoring(grid.MustDims(6, 6), 1) // everything k
	c.FillRow(2, 2)
	c.FillRow(3, 3)
	topo := mesh(6, 6)
	if !HasNonKBlock(topo, c, 1) {
		t.Fatal("two non-k rows should form a non-k-block in the mesh")
	}
	bs := NonKBlocks(topo, c, 1)
	if len(bs) != 1 || len(bs[0]) != 12 {
		t.Errorf("unexpected non-k-blocks %v", bs)
	}
}

func TestNonKBlocksTwoColumnsInCordalis(t *testing.T) {
	// In the torus cordalis the horizontal wrap leaves the row band, so the
	// strict Definition 5 is satisfied by two consecutive *columns* (the
	// vertical wrap stays inside the band) but not by two consecutive rows:
	// the band's first and last vertices only keep two in-band neighbors.
	// (The paper states the rows example loosely for all tori; the strict
	// definition admits it only for the mesh — see EXPERIMENTS.md.)
	topo := grid.MustNew(grid.KindTorusCordalis, 6, 6)
	byCols := color.NewColoring(grid.MustDims(6, 6), 1)
	byCols.FillCol(2, 2)
	byCols.FillCol(3, 3)
	if !HasNonKBlock(topo, byCols, 1) {
		t.Error("two non-k columns should form a non-k-block in the cordalis")
	}
	byRows := color.NewColoring(grid.MustDims(6, 6), 1)
	byRows.FillRow(2, 2)
	byRows.FillRow(3, 3)
	if HasNonKBlock(topo, byRows, 1) {
		t.Error("a two-row band has weak corners in the cordalis and is not a strict non-k-block")
	}
}

func TestSingleNonKRowIsNotANonKBlock(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 1)
	c.FillRow(2, 2)
	if HasNonKBlock(mesh(6, 6), c, 1) {
		t.Error("one non-k row has internal degree 2, not 3; it is not a non-k-block")
	}
}

func TestNonKBlockMixedColors(t *testing.T) {
	// Non-k-blocks may mix any colors different from k.
	c := color.NewColoring(grid.MustDims(6, 6), 1)
	c.FillRow(2, 2)
	c.FillRow(3, 4)
	c.FillRow(4, 3)
	if !HasNonKBlock(mesh(6, 6), c, 1) {
		t.Error("three mixed non-k rows should contain a non-k-block")
	}
}

func TestOtherColorBlocks(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 1)
	c.FillCol(2, 3) // a 3-block (column wraps)
	got := OtherColorBlocks(mesh(6, 6), c, 1)
	if len(got) != 1 {
		t.Fatalf("expected blocks for exactly one color, got %v", got)
	}
	if len(got[3]) != 1 {
		t.Errorf("expected one 3-block, got %v", got[3])
	}
	// The k color itself is never reported.
	if _, ok := got[1]; ok {
		t.Error("OtherColorBlocks must not report the target color")
	}
}

func TestMonochromaticIsOneBigBlock(t *testing.T) {
	c := color.NewColoring(grid.MustDims(5, 5), 1)
	bs := KBlocks(mesh(5, 5), c, 1)
	if len(bs) != 1 || len(bs[0]) != 25 {
		t.Errorf("monochromatic torus should be a single block of 25, got %v", bs)
	}
	if HasNonKBlock(mesh(5, 5), c, 1) {
		t.Error("monochromatic torus has no non-k vertices at all")
	}
}

func TestBlockVerticesPersistUnderSMPDynamics(t *testing.T) {
	// The defining consequence of Definition 4, checked dynamically: on
	// random colorings, every vertex that belongs to a k-block at time 0
	// still carries color k when the dynamics freeze (blocks are immutable
	// under the SMP-Protocol).
	f := func(seed uint64, kindSeed, sizeSeed uint8) bool {
		kind := grid.Kinds()[int(kindSeed)%3]
		m := 4 + int(sizeSeed)%6
		n := 4 + int(sizeSeed/2)%6
		topo := grid.MustNew(kind, m, n)
		src := rng.New(seed)
		p := color.MustPalette(3)
		c := color.RandomColoring(topo.Dims(), p, func() int { return src.Intn(p.K) })
		res := sim.NewEngine(topo, rules.SMP{}).Run(c, sim.Options{MaxRounds: 200, DetectCycles: true})
		for k := color.Color(1); int(k) <= p.K; k++ {
			for _, block := range KBlocks(topo, c, k) {
				for _, v := range block {
					if res.Final.At(v) != k {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNonKBlockVerticesNeverAcquireK(t *testing.T) {
	// Definition 5's consequence, checked dynamically on random colorings:
	// vertices inside a non-k-block never become k.
	f := func(seed uint64, sizeSeed uint8) bool {
		m := 5 + int(sizeSeed)%5
		n := 5 + int(sizeSeed/3)%5
		topo := mesh(m, n)
		src := rng.New(seed)
		p := color.MustPalette(3)
		c := color.RandomColoring(topo.Dims(), p, func() int { return src.Intn(p.K) })
		res := sim.NewEngine(topo, rules.SMP{}).Run(c, sim.Options{MaxRounds: 200, DetectCycles: true})
		for _, block := range NonKBlocks(topo, c, 1) {
			for _, v := range block {
				if res.Final.At(v) == 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomColoringBlocksArePlausible(t *testing.T) {
	src := rng.New(123)
	p := color.MustPalette(3)
	c := color.RandomColoring(grid.MustDims(10, 10), p, func() int { return src.Intn(p.K) })
	topo := mesh(10, 10)
	for k := color.Color(1); int(k) <= p.K; k++ {
		for _, block := range KBlocks(topo, c, k) {
			for _, v := range block {
				if c.At(v) != k {
					t.Fatalf("block for color %v contains vertex of color %v", k, c.At(v))
				}
			}
			if len(block) < 3 {
				t.Fatalf("a k-block needs at least 3 vertices on a simple graph, got %d", len(block))
			}
		}
	}
}

// TestKBlockIffNotForest pins the identity the dynamo and tvg tests use to
// detect a k-block: the 2-core of the k class is non-empty exactly when the
// class contains a cycle, so HasKBlock(topo, c, k) == !IsForest(topo, c, k).
func TestKBlockIffNotForest(t *testing.T) {
	src := rng.New(11)
	for trial := 0; trial < 60; trial++ {
		kind := grid.Kinds()[trial%3]
		topo := grid.MustNew(kind, 3+trial%5, 4+trial%4)
		p := color.MustPalette(2 + trial%3)
		c := color.RandomColoring(topo.Dims(), p, func() int { return src.Intn(p.K) })
		for k := color.Color(1); int(k) <= p.K; k++ {
			if HasKBlock(topo, c, k) == IsForest(topo, c, k) {
				t.Fatalf("%v trial %d color %v: HasKBlock = %v, IsForest = %v",
					kind, trial, k, HasKBlock(topo, c, k), IsForest(topo, c, k))
			}
		}
	}
}
