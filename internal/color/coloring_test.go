package color

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/rng"
)

// mustParse decodes the rune grid Coloring.String prints: one row per line,
// '1'-'9' for colors 1-9, 'a'-'z' for 10-35 and '.' for None.  Blank lines
// and the spaces around a row are ignored.
func mustParse(s string) *Coloring {
	var rows []string
	for _, line := range strings.Split(s, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			rows = append(rows, line)
		}
	}
	c := NewColoring(grid.MustDims(len(rows), len(rows[0])), None)
	for i, row := range rows {
		for j, r := range row {
			switch {
			case r >= '1' && r <= '9':
				c.SetRC(i, j, Color(r-'0'))
			case r >= 'a' && r <= 'z':
				c.SetRC(i, j, Color(r-'a')+10)
			case r != '.':
				panic(fmt.Sprintf("mustParse: cannot decode rune %q", r))
			}
		}
	}
	return c
}

func TestNewColoringFill(t *testing.T) {
	c := NewColoring(grid.MustDims(3, 4), 2)
	if c.N() != 12 {
		t.Fatalf("N = %d", c.N())
	}
	for v := 0; v < c.N(); v++ {
		if c.At(v) != 2 {
			t.Fatalf("vertex %d = %v, want 2", v, c.At(v))
		}
	}
	empty := NewColoring(grid.MustDims(2, 2), None)
	if empty.At(0) != None {
		t.Error("unfilled coloring should be None")
	}
}

func TestSettersAndGetters(t *testing.T) {
	c := NewColoring(grid.MustDims(4, 5), 1)
	c.Set(7, 3)
	if c.At(7) != 3 {
		t.Error("Set/At mismatch")
	}
	c.SetRC(2, 3, 4)
	if c.AtRC(2, 3) != 4 || c.At(2*5+3) != 4 {
		t.Error("SetRC/AtRC mismatch")
	}
	if len(c.Cells()) != 20 {
		t.Error("Cells length wrong")
	}
}

func TestFillRowCol(t *testing.T) {
	c := NewColoring(grid.MustDims(4, 5), 1)
	c.FillRow(2, 7)
	for j := 0; j < 5; j++ {
		if c.AtRC(2, j) != 7 {
			t.Fatal("FillRow missed a cell")
		}
	}
	c.FillCol(3, 8)
	for i := 0; i < 4; i++ {
		if c.AtRC(i, 3) != 8 {
			t.Fatal("FillCol missed a cell")
		}
	}
	if c.AtRC(0, 0) != 1 {
		t.Error("FillRow/FillCol touched unrelated cells")
	}
}

func TestCloneAndCopyFrom(t *testing.T) {
	a := NewColoring(grid.MustDims(3, 3), 1)
	b := a.Clone()
	b.Set(0, 2)
	if a.At(0) != 1 {
		t.Error("Clone should not share backing storage")
	}
	a.CopyFrom(b)
	if a.At(0) != 2 {
		t.Error("CopyFrom did not copy")
	}
}

func TestCopyFromDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	NewColoring(grid.MustDims(3, 3), 1).CopyFrom(NewColoring(grid.MustDims(3, 4), 1))
}

func TestEqual(t *testing.T) {
	a := NewColoring(grid.MustDims(3, 3), 1)
	b := a.Clone()
	if !a.Equal(b) {
		t.Error("clones should be equal")
	}
	b.Set(4, 2)
	if a.Equal(b) {
		t.Error("modified clone should differ")
	}
	c := NewColoring(grid.MustDims(3, 4), 1)
	if a.Equal(c) {
		t.Error("different dimensions should not be equal")
	}
}

func TestCountAndCounts(t *testing.T) {
	c := mustParse("112\n223\n333")
	if c.Count(1) != 2 || c.Count(2) != 3 || c.Count(3) != 4 {
		t.Errorf("Count wrong: %v", c.Counts())
	}
	counts := c.Counts()
	if counts[1] != 2 || counts[2] != 3 || counts[3] != 4 {
		t.Errorf("Counts wrong: %v", counts)
	}
	if c.Count(9) != 0 {
		t.Error("Count of absent color should be 0")
	}
}

func TestVertices(t *testing.T) {
	c := mustParse("12\n21")
	vs := c.Vertices(1)
	if len(vs) != 2 || vs[0] != 0 || vs[1] != 3 {
		t.Errorf("Vertices(1) = %v", vs)
	}
	if len(c.Vertices(5)) != 0 {
		t.Error("Vertices of absent color should be empty")
	}
}

func TestIsMonochromatic(t *testing.T) {
	c := NewColoring(grid.MustDims(3, 3), 4)
	col, ok := c.IsMonochromatic()
	if !ok || col != 4 {
		t.Errorf("IsMonochromatic = %v,%v", col, ok)
	}
	c.Set(5, 2)
	if _, ok := c.IsMonochromatic(); ok {
		t.Error("mixed coloring reported monochromatic")
	}
}

func TestMaxColor(t *testing.T) {
	c := mustParse("12\n34")
	if c.MaxColor() != 4 {
		t.Errorf("MaxColor = %v", c.MaxColor())
	}
	if NewColoring(grid.MustDims(2, 2), None).MaxColor() != None {
		t.Error("MaxColor of unset coloring should be None")
	}
}

func TestValidate(t *testing.T) {
	c := mustParse("12\n21")
	if err := c.Validate(MustPalette(2)); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
	if err := c.Validate(MustPalette(1)); err == nil {
		t.Error("coloring with color 2 should fail a 1-color palette")
	}
	c.Set(0, None)
	if err := c.Validate(MustPalette(2)); err == nil {
		t.Error("unset cell should fail validation")
	}
}

func TestBoundingRectangle(t *testing.T) {
	c := mustParse(`
2222
2122
2212
2222`)
	rows, cols := c.BoundingRectangle(1)
	if rows != 2 || cols != 2 {
		t.Errorf("BoundingRectangle(1) = %d,%d, want 2,2", rows, cols)
	}
	rows, cols = c.BoundingRectangle(2)
	if rows != 4 || cols != 4 {
		t.Errorf("BoundingRectangle(2) = %d,%d, want 4,4", rows, cols)
	}
	rows, cols = c.BoundingRectangle(9)
	if rows != 0 || cols != 0 {
		t.Errorf("BoundingRectangle of absent color = %d,%d", rows, cols)
	}
}

func TestRandomColoringValid(t *testing.T) {
	src := rng.New(1)
	p := MustPalette(5)
	c := RandomColoring(grid.MustDims(10, 10), p, func() int { return src.Intn(p.K) })
	if err := c.Validate(p); err != nil {
		t.Fatalf("random coloring invalid: %v", err)
	}
	// With 100 cells and 5 colors, every color should almost surely appear.
	for col := Color(1); int(col) <= p.K; col++ {
		if c.Count(col) == 0 {
			t.Errorf("color %v never used", col)
		}
	}
}

func TestCountsSumProperty(t *testing.T) {
	f := func(seed uint64, rows, cols, k uint8) bool {
		r := 2 + int(rows)%8
		cl := 2 + int(cols)%8
		kk := 1 + int(k)%6
		src := rng.New(seed)
		p := MustPalette(kk)
		c := RandomColoring(grid.MustDims(r, cl), p, func() int { return src.Intn(p.K) })
		total := 0
		for _, n := range c.Counts() {
			total += n
		}
		return total == r*cl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
