package dynamo

import "repro/internal/grid"

// ceilDiv returns ⌈a/b⌉ for positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PredictedRoundsMesh returns the round count of Theorem 7 for a toroidal
// mesh of the given size:
//
//	2 · max(⌈(n−1)/2⌉ − 1, ⌈(m−1)/2⌉ − 1) + 1.
//
// The formula matches the full-cross configuration of Figure 5 exactly; for
// the strictly minimum (m+n−2) configuration of Theorem 2 the measured count
// is one round larger (the missing corner of the seed delays one diagonal),
// which EXPERIMENTS.md reports as a systematic deviation.
func PredictedRoundsMesh(dims grid.Dims) int {
	m, n := dims.Rows, dims.Cols
	a := ceilDiv(n-1, 2) - 1
	b := ceilDiv(m-1, 2) - 1
	mx := a
	if b > mx {
		mx = b
	}
	return 2*mx + 1
}

// ExactRoundsFullCross returns the exact number of rounds the full-cross
// configuration needs on an m×n toroidal mesh:
//
//	⌈(m−1)/2⌉ + ⌈(n−1)/2⌉ − 1.
//
// A vertex at lattice distance g(i) = min(i, m−i) from the seed row and
// g(j) = min(j, n−j) from the seed column recolors exactly at round
// g(i)+g(j)−1 (it acquires its two k-colored neighbors one round earlier),
// so the last vertex is the one maximizing both distances.  For square tori
// this coincides with the paper's Theorem 7 formula; for rectangular tori
// the paper's max-based formula overestimates by the difference of the two
// half-spans, which EXPERIMENTS.md reports.
func ExactRoundsFullCross(dims grid.Dims) int {
	return ceilDiv(dims.Rows-1, 2) + ceilDiv(dims.Cols-1, 2) - 1
}

// PredictedRoundsSpiral returns the round count of Theorem 8 for a torus
// cordalis (and for a torus serpentinus seeded on a row, i.e. N = n) of the
// given size:
//
//	(⌊(m−1)/2⌋ − 1)·n + ⌈n/2⌉   if m is odd
//	(⌊(m−1)/2⌋ − 1)·n + 1       if m is even
func PredictedRoundsSpiral(dims grid.Dims) int {
	m, n := dims.Rows, dims.Cols
	base := ((m-1)/2 - 1) * n
	if m%2 == 1 {
		return base + ceilDiv(n, 2)
	}
	return base + 1
}

// PredictedRoundsSerpentinusColumn is the column-seeded (N = m) variant of
// Theorem 8 for the torus serpentinus, obtained by exchanging the roles of
// rows and columns.
func PredictedRoundsSerpentinusColumn(dims grid.Dims) int {
	transposed := grid.Dims{Rows: dims.Cols, Cols: dims.Rows}
	return PredictedRoundsSpiral(transposed)
}

// PredictedRounds dispatches on the topology: Theorem 7 for the toroidal
// mesh and Theorem 8 for the spiral tori (row-seeded form).
func PredictedRounds(kind grid.Kind, dims grid.Dims) int {
	if kind == grid.KindToroidalMesh {
		return PredictedRoundsMesh(dims)
	}
	if kind == grid.KindTorusSerpentinus && dims.Rows < dims.Cols {
		// The Theorem 6 seed lies on a column when m < n.
		return PredictedRoundsSerpentinusColumn(dims)
	}
	return PredictedRoundsSpiral(dims)
}
