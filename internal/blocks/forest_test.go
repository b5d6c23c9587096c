package blocks

import (
	"fmt"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
)

// AllOtherClassesAreForests reports whether every color class other than k
// induces a forest.
func AllOtherClassesAreForests(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	for col := range c.Counts() {
		if col == k || col == color.None {
			continue
		}
		if !IsForest(topo, c, col) {
			return false
		}
	}
	return true
}

// CheckMonotoneDynamoNecessaryConditions verifies the necessary conditions
// of Lemma 2 and Theorem 1 for a set Sk (the k-colored vertices of the
// coloring) to be a monotone dynamo:
//
//   - Sk is a union of k-blocks (every k-colored vertex belongs to a
//     k-block);
//   - the complement contains no non-k-block;
//   - the bounding rectangle of Sk spans at least (m-1) rows and (n-1)
//     columns.
//
// It returns nil when all conditions hold.
func CheckMonotoneDynamoNecessaryConditions(topo grid.Topology, c *color.Coloring, k color.Color) error {
	d := topo.Dims()
	inBlock := make([]bool, c.N())
	for _, block := range KBlocks(topo, c, k) {
		for _, v := range block {
			inBlock[v] = true
		}
	}
	for v := 0; v < c.N(); v++ {
		if c.At(v) == k && !inBlock[v] {
			return fmt.Errorf("blocks: k-colored vertex %v belongs to no k-block (violates Lemma 2)", d.Coord(v))
		}
	}
	if HasNonKBlock(topo, c, k) {
		return fmt.Errorf("blocks: the complement of Sk contains a non-k-block (violates Lemma 2)")
	}
	rows, cols := c.BoundingRectangle(k)
	if rows < d.Rows-1 || cols < d.Cols-1 {
		return fmt.Errorf("blocks: bounding rectangle of Sk is %dx%d, need at least %dx%d (violates Lemma 1)",
			rows, cols, d.Rows-1, d.Cols-1)
	}
	return nil
}

func TestIsForestPathAndTree(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 2)
	// An L-shaped path of color 1.
	for _, p := range [][2]int{{1, 1}, {1, 2}, {1, 3}, {2, 3}, {3, 3}} {
		c.SetRC(p[0], p[1], 1)
	}
	if !IsForest(mesh(6, 6), c, 1) {
		t.Error("an L-shaped path is a tree, hence a forest")
	}
}

func TestIsForestDetectsCycle(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 2)
	for _, p := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		c.SetRC(p[0], p[1], 1)
	}
	if IsForest(mesh(6, 6), c, 1) {
		t.Error("a 2x2 square contains a 4-cycle")
	}
}

func TestIsForestWrappingColumnIsACycle(t *testing.T) {
	c := color.NewColoring(grid.MustDims(5, 5), 2)
	c.FillCol(2, 1)
	if IsForest(mesh(5, 5), c, 1) {
		t.Error("a full column wraps into a cycle in the toroidal mesh")
	}
	// In the serpentinus the same column does not close on itself.
	if !IsForest(grid.MustNew(grid.KindTorusSerpentinus, 5, 5), c, 1) {
		t.Error("a single column is a path in the serpentinus")
	}
}

func TestIsForestEmptyClass(t *testing.T) {
	c := color.NewColoring(grid.MustDims(4, 4), 2)
	if !IsForest(mesh(4, 4), c, 7) {
		t.Error("an empty color class is trivially a forest")
	}
}

func TestIsForestDisconnectedComponents(t *testing.T) {
	c := color.NewColoring(grid.MustDims(8, 8), 2)
	for _, p := range [][2]int{{1, 1}, {1, 2}, {5, 5}, {6, 5}} {
		c.SetRC(p[0], p[1], 1)
	}
	if !IsForest(mesh(8, 8), c, 1) {
		t.Error("two disjoint edges form a forest")
	}
	// Close a cycle in one component only.
	c.SetRC(2, 1, 1)
	c.SetRC(2, 2, 1)
	if IsForest(mesh(8, 8), c, 1) {
		t.Error("one cyclic component makes the class not a forest")
	}
}

func TestAllOtherClassesAreForests(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 2)
	c.FillCol(0, 1)
	c.FillRow(0, 1)
	// Color 2 fills the rest as one big blob with many cycles.
	if AllOtherClassesAreForests(mesh(6, 6), c, 1) {
		t.Error("the 5x5 blob of color 2 contains cycles")
	}
	// Recolor the blob into vertical stripes of distinct colors: each stripe
	// is a path (column 0 is color 1, so stripes do not wrap).
	for i := 1; i < 6; i++ {
		for j := 1; j < 6; j++ {
			c.SetRC(i, j, color.Color(1+j))
		}
	}
	if !AllOtherClassesAreForests(mesh(6, 6), c, 1) {
		t.Error("disjoint vertical stripes should all be forests")
	}
}

func TestCheckTightPaddingAcceptsValidConfiguration(t *testing.T) {
	// Full cross of color 1 with a 3-color row cycle outside: the canonical
	// valid padding (every non-k vertex sees at most its own color twice and
	// the two vertical neighbors carry different colors).
	m, n := 7, 7
	c := color.NewColoring(grid.MustDims(m, n), color.None)
	pad := []color.Color{2, 3, 4}
	for i := 1; i < m; i++ {
		for j := 1; j < n; j++ {
			c.SetRC(i, j, pad[(i-1)%3])
		}
	}
	c.FillRow(0, 1)
	c.FillCol(0, 1)
	if err := CheckTightPadding(mesh(m, n), c, 1); err != nil {
		t.Fatalf("valid padding rejected: %v", err)
	}
}

func TestCheckTightPaddingRejectsRepeatedOtherColor(t *testing.T) {
	m, n := 7, 7
	c := color.NewColoring(grid.MustDims(m, n), color.None)
	pad := []color.Color{2, 3, 4}
	for i := 1; i < m; i++ {
		for j := 1; j < n; j++ {
			c.SetRC(i, j, pad[(i-1)%3])
		}
	}
	c.FillRow(0, 1)
	c.FillCol(0, 1)
	// Make vertex (3,3) see color 2 twice among "other" colors: its vertical
	// neighbors are rows 2 and 4 (colors 3 and 2 in the cycle); recolor (2,3)
	// to 2 so both verticals are 2 while (3,3) itself is 4.
	c.SetRC(2, 3, 2)
	c.SetRC(4, 3, 2)
	c.SetRC(3, 3, 4)
	if err := CheckTightPadding(mesh(m, n), c, 1); err == nil {
		t.Fatal("padding with a repeated other color should be rejected")
	}
}

func TestCheckTightPaddingRejectsNonForestClass(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 2) // color 2 everywhere: full of cycles
	c.FillRow(0, 1)
	c.FillCol(0, 1)
	if err := CheckTightPadding(mesh(6, 6), c, 1); err == nil {
		t.Fatal("cyclic color class should be rejected")
	}
}

func TestCheckTightPaddingRejectsUnsetCells(t *testing.T) {
	c := color.NewColoring(grid.MustDims(4, 4), color.None)
	c.FillRow(0, 1)
	if err := CheckTightPadding(mesh(4, 4), c, 1); err == nil {
		t.Fatal("unset cells should be rejected")
	}
}

func TestCheckMonotoneDynamoNecessaryConditions(t *testing.T) {
	m, n := 6, 6
	topo := mesh(m, n)
	// Full cross: passes all necessary conditions.
	c := color.NewColoring(grid.MustDims(m, n), color.None)
	pad := []color.Color{2, 3, 4}
	for i := 1; i < m; i++ {
		for j := 1; j < n; j++ {
			c.SetRC(i, j, pad[(i-1)%3])
		}
	}
	c.FillRow(0, 1)
	c.FillCol(0, 1)
	if err := CheckMonotoneDynamoNecessaryConditions(topo, c, 1); err != nil {
		t.Fatalf("full cross should satisfy the necessary conditions: %v", err)
	}

	// A lone extra k-vertex violates the union-of-blocks condition.
	bad := c.Clone()
	bad.SetRC(3, 3, 1)
	if err := CheckMonotoneDynamoNecessaryConditions(topo, bad, 1); err == nil {
		t.Error("isolated k-vertex should violate Lemma 2")
	}

	// A small k-set whose bounding rectangle does not span the torus
	// violates Lemma 1 (and typically leaves a non-k-block too).
	small := color.NewColoring(grid.MustDims(m, n), 2)
	small.SetRC(2, 2, 1)
	small.SetRC(2, 3, 1)
	small.SetRC(3, 2, 1)
	small.SetRC(3, 3, 1)
	if err := CheckMonotoneDynamoNecessaryConditions(topo, small, 1); err == nil {
		t.Error("a 2x2 seed should violate the necessary conditions")
	}
}
