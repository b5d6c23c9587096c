package color

import (
	"strings"

	"repro/internal/grid"
)

// String renders the coloring as a compact grid of runes, one row per line,
// using Color.Rune for each cell.
func (c *Coloring) String() string {
	var b strings.Builder
	for i := 0; i < c.dims.Rows; i++ {
		for j := 0; j < c.dims.Cols; j++ {
			b.WriteRune(c.AtRC(i, j).Rune())
		}
		if i < c.dims.Rows-1 {
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// RandomColoring fills a new coloring with uniformly chosen palette colors
// produced by next, which must return values in [0, k).  It is split from
// the rng package to keep this package dependency-free; callers pass
// func() int { return src.Intn(p.K) }.
func RandomColoring(dims grid.Dims, p Palette, next func() int) *Coloring {
	c := NewColoring(dims, None)
	for v := 0; v < dims.N(); v++ {
		c.Set(v, Color(next()+1))
	}
	return c
}
