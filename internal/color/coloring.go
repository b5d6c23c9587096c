package color

import (
	"fmt"

	"repro/internal/grid"
)

// Coloring is a total color assignment over the vertices of an m×n lattice.
// It is the mutable state evolved by the simulation engine.
type Coloring struct {
	dims  grid.Dims
	cells []Color
}

// NewColoring returns a coloring of the given dimensions with every vertex
// set to fill.
func NewColoring(dims grid.Dims, fill Color) *Coloring {
	c := &Coloring{dims: dims, cells: make([]Color, dims.N())}
	if fill != None {
		c.Fill(fill)
	}
	return c
}

// Dims returns the lattice dimensions.
func (c *Coloring) Dims() grid.Dims { return c.dims }

// N returns the number of vertices.
func (c *Coloring) N() int { return len(c.cells) }

// At returns the color of vertex v (dense index).
func (c *Coloring) At(v int) Color { return c.cells[v] }

// Set assigns color col to vertex v (dense index).
func (c *Coloring) Set(v int, col Color) { c.cells[v] = col }

// AtRC returns the color at (row, col).
func (c *Coloring) AtRC(row, col int) Color { return c.cells[c.dims.IndexRC(row, col)] }

// SetRC assigns a color at (row, col).
func (c *Coloring) SetRC(row, col int, colr Color) { c.cells[c.dims.IndexRC(row, col)] = colr }

// Cells exposes the backing slice.  Callers must treat it as read-only
// unless they own the coloring; it exists so the engine's inner loop can
// avoid per-vertex method calls.
func (c *Coloring) Cells() []Color { return c.cells }

// Fill sets every vertex to col.
func (c *Coloring) Fill(col Color) {
	for i := range c.cells {
		c.cells[i] = col
	}
}

// FillRow sets every vertex of the given row to col.
func (c *Coloring) FillRow(row int, col Color) {
	for j := 0; j < c.dims.Cols; j++ {
		c.SetRC(row, j, col)
	}
}

// FillCol sets every vertex of the given column to col.
func (c *Coloring) FillCol(colIdx int, col Color) {
	for i := 0; i < c.dims.Rows; i++ {
		c.SetRC(i, colIdx, col)
	}
}

// Clone returns a deep copy of the coloring.
func (c *Coloring) Clone() *Coloring {
	out := &Coloring{dims: c.dims, cells: make([]Color, len(c.cells))}
	copy(out.cells, c.cells)
	return out
}

// CopyFrom overwrites the receiver's cells with those of src.  The two
// colorings must have identical dimensions.
func (c *Coloring) CopyFrom(src *Coloring) {
	if c.dims != src.dims {
		panic(fmt.Sprintf("color: CopyFrom dimension mismatch %v vs %v", c.dims, src.dims))
	}
	copy(c.cells, src.cells)
}

// Equal reports whether two colorings have identical dimensions and cells.
func (c *Coloring) Equal(other *Coloring) bool {
	if c.dims != other.dims {
		return false
	}
	for i, v := range c.cells {
		if other.cells[i] != v {
			return false
		}
	}
	return true
}

// Count returns the number of vertices with color col.
func (c *Coloring) Count(col Color) int {
	n := 0
	for _, v := range c.cells {
		if v == col {
			n++
		}
	}
	return n
}

// Counts returns a histogram of colors keyed by color.
func (c *Coloring) Counts() map[Color]int {
	out := make(map[Color]int)
	for _, v := range c.cells {
		out[v]++
	}
	return out
}

// Vertices returns the dense indices of all vertices with color col, in
// increasing order.  The paper writes this set V^col.
func (c *Coloring) Vertices(col Color) []int {
	out := make([]int, 0)
	for v, cv := range c.cells {
		if cv == col {
			out = append(out, v)
		}
	}
	return out
}

// IsMonochromatic reports whether all vertices share one color and, if so,
// returns it.
func (c *Coloring) IsMonochromatic() (Color, bool) {
	if len(c.cells) == 0 {
		return None, false
	}
	first := c.cells[0]
	for _, v := range c.cells[1:] {
		if v != first {
			return None, false
		}
	}
	return first, true
}

// MaxColor returns the largest color label used in the coloring (0 if all
// cells are unset).
func (c *Coloring) MaxColor() Color {
	max := None
	for _, v := range c.cells {
		if v > max {
			max = v
		}
	}
	return max
}

// Validate checks that every vertex carries a color of the palette.
func (c *Coloring) Validate(p Palette) error {
	for v, cv := range c.cells {
		if !p.Contains(cv) {
			return fmt.Errorf("color: vertex %d (%v) has color %v outside palette %v",
				v, c.dims.Coord(v), cv, p)
		}
	}
	return nil
}

// BoundingRectangle returns the dimensions (rows, cols) of the smallest
// axis-aligned rectangle of the lattice containing every vertex of color
// col, without wrapping.  This is the quantity the paper calls
// m_{S} × n_{S} for the set S of col-colored vertices.  If no vertex has the
// color it returns (0, 0).
func (c *Coloring) BoundingRectangle(col Color) (rows, cols int) {
	minR, maxR := c.dims.Rows, -1
	minC, maxC := c.dims.Cols, -1
	for v, cv := range c.cells {
		if cv != col {
			continue
		}
		p := c.dims.Coord(v)
		if p.Row < minR {
			minR = p.Row
		}
		if p.Row > maxR {
			maxR = p.Row
		}
		if p.Col < minC {
			minC = p.Col
		}
		if p.Col > maxC {
			maxC = p.Col
		}
	}
	if maxR < 0 {
		return 0, 0
	}
	return maxR - minR + 1, maxC - minC + 1
}
