package blocks

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/grid"
)

// CheckTightPadding verifies the hypotheses that Theorems 2, 4 and 6 impose
// on the colors outside the dynamo seed Sk:
//
//  1. for every color k' != k, the k'-colored vertices induce a forest;
//  2. for every k'-colored vertex x, the neighbors of x whose color is
//     neither k' nor k carry pairwise different colors.
//
// It returns nil when both conditions hold and a descriptive error naming
// the first violated condition otherwise.
func CheckTightPadding(topo grid.Topology, c *color.Coloring, k color.Color) error {
	counts := c.Counts()
	for col := range counts {
		if col == color.None {
			return fmt.Errorf("blocks: vertex with unset color present")
		}
		if col == k {
			continue
		}
		if !IsForest(topo, c, col) {
			return fmt.Errorf("blocks: color class %v is not a forest", col)
		}
	}
	d := c.Dims()
	var buf [grid.Degree]int
	for v := 0; v < c.N(); v++ {
		own := c.At(v)
		if own == k {
			continue
		}
		seen := make(map[color.Color]bool, grid.Degree)
		for _, u := range topo.Neighbors(v, buf[:0]) {
			cu := c.At(u)
			if cu == k || cu == own {
				continue
			}
			if seen[cu] {
				return fmt.Errorf("blocks: vertex %v (color %v) has two neighbors of color %v",
					d.Coord(v), own, cu)
			}
			seen[cu] = true
		}
	}
	return nil
}
