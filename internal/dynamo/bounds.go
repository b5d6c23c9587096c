// Package dynamo implements the paper's core contribution: minimum-size
// dynamic monopolies (dynamos) for multicolored tori under the SMP-Protocol.
//
// The package provides
//
//   - the lower bounds of Theorems 1, 3 and 5 (bounds.go);
//   - the tight constructions of Theorems 2, 4 and 6, the full-cross
//     configuration behind Figure 5 and the comb-shaped upper-bound dynamo
//     derived from Proposition 2 (construct.go); the package's tests pin
//     Proposition 3's color requirement and its 2-wide construction;
//   - padding generators that color the vertices outside the seed so that
//     the theorems' hypotheses hold (padding.go);
//   - counterexample configurations in the spirit of Figures 3 and 4
//     (counterexample.go);
//   - the round-count predictions of Theorems 7 and 8 (rounds.go);
//   - simulation-backed verification of the dynamo and monotonicity
//     properties (verify.go).
package dynamo

import (
	"fmt"

	"repro/internal/grid"
)

// LowerBound returns the paper's lower bound on the size of a monotone
// dynamo for the given topology and size:
//
//	toroidal mesh      |Sk| >= m + n - 2   (Theorem 1)
//	torus cordalis     |Sk| >= n + 1       (Theorem 3)
//	torus serpentinus  |Sk| >= min(m,n)+1  (Theorem 5)
func LowerBound(kind grid.Kind, dims grid.Dims) int {
	switch kind {
	case grid.KindToroidalMesh:
		return dims.Rows + dims.Cols - 2
	case grid.KindTorusCordalis:
		return dims.Cols + 1
	case grid.KindTorusSerpentinus:
		return dims.Min() + 1
	default:
		panic(fmt.Sprintf("dynamo: unknown topology kind %v", kind))
	}
}
