package analysis

import (
	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/sim"
)

// TimingMatrix runs the SMP-Protocol on the initial coloring and returns the
// per-vertex recoloring times laid out as a row-major matrix (the format of
// the paper's Figures 5 and 6: entry (i,j) is the round at which vertex
// (i,j) first carries the target color, 0 for seed vertices, -1 if never).
func TimingMatrix(topo grid.Topology, initial *color.Coloring, target color.Color) ([][]int, *sim.Result) {
	res := sim.NewEngine(topo, rules.SMP{}).Run(initial, sim.Options{
		Target:                target,
		StopWhenMonochromatic: true,
		DetectCycles:          true,
	})
	return res.TimesMatrix(topo.Dims()), res
}

// Figure5Reference is the 5x5 recoloring-time matrix printed in the paper's
// Figure 5 (toroidal mesh, full cross of k on row 0 and column 0).
func Figure5Reference() [][]int {
	return [][]int{
		{0, 0, 0, 0, 0},
		{0, 1, 2, 2, 1},
		{0, 2, 3, 3, 2},
		{0, 2, 3, 3, 2},
		{0, 1, 2, 2, 1},
	}
}

// Figure6Reference is the 5x5 recoloring-time matrix printed in the paper's
// Figure 6 (torus cordalis, Theorem 4 seed: row 0 plus vertex (1,0)).
func Figure6Reference() [][]int {
	return [][]int{
		{0, 0, 0, 0, 0},
		{0, 1, 2, 3, 4},
		{5, 6, 7, 8, 7},
		{6, 7, 8, 7, 6},
		{5, 4, 3, 2, 1},
	}
}

// MatricesEqual reports whether two integer matrices are identical.
func MatricesEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// MatrixMax returns the largest entry of the matrix (0 for an empty matrix).
func MatrixMax(m [][]int) int {
	max := 0
	for _, row := range m {
		for _, v := range row {
			if v > max {
				max = v
			}
		}
	}
	return max
}

// MatrixDiffCount returns how many entries differ between two matrices of
// identical shape (and -1 when the shapes differ).
func MatrixDiffCount(a, b [][]int) int {
	if len(a) != len(b) {
		return -1
	}
	diff := 0
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return -1
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				diff++
			}
		}
	}
	return diff
}
