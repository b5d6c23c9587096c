package dynamo

import (
	"testing"

	"repro/internal/grid"
)

func TestLowerBound(t *testing.T) {
	cases := []struct {
		kind grid.Kind
		m, n int
		want int
	}{
		{grid.KindToroidalMesh, 9, 9, 16},    // the paper's Figure 1: m+n-2 = 16
		{grid.KindToroidalMesh, 5, 7, 10},    // m+n-2
		{grid.KindTorusCordalis, 5, 7, 8},    // n+1
		{grid.KindTorusCordalis, 9, 4, 5},    // n+1
		{grid.KindTorusSerpentinus, 5, 7, 6}, // min(m,n)+1
		{grid.KindTorusSerpentinus, 8, 3, 4}, // min(m,n)+1
	}
	for _, c := range cases {
		got := LowerBound(c.kind, grid.MustDims(c.m, c.n))
		if got != c.want {
			t.Errorf("LowerBound(%v, %dx%d) = %d, want %d", c.kind, c.m, c.n, got, c.want)
		}
	}
}

func TestLowerBoundPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LowerBound(grid.Kind(99), grid.MustDims(4, 4))
}

// MinColorsForMinimumDynamo returns the number of colors the paper's results
// associate with the existence of a minimum-size dynamo on an m×n torus:
// Proposition 3 links |C| to N = min(m,n) for N <= 3, and the Theorem 2
// construction uses four colors for larger tori.
//
//	N = 1  ->  1 color  (the torus is already a single row/column)
//	N = 2  ->  2 colors suffice only at size m+1; 3 colors allow size m
//	N = 3  ->  3 colors
//	N >= 4 ->  4 colors
//
// The returned value is the number of colors used by this repository's
// constructions (3 for N ∈ {2,3}, 4 otherwise).
func MinColorsForMinimumDynamo(dims grid.Dims) int {
	n := dims.Min()
	switch {
	case n <= 1:
		return 1
	case n == 2, n == 3:
		return 3
	default:
		return 4
	}
}

func TestMinColorsForMinimumDynamo(t *testing.T) {
	cases := []struct {
		m, n, want int
	}{
		{2, 9, 3},
		{3, 9, 3},
		{4, 4, 4},
		{20, 30, 4},
	}
	for _, c := range cases {
		if got := MinColorsForMinimumDynamo(grid.MustDims(c.m, c.n)); got != c.want {
			t.Errorf("MinColors(%dx%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestPredictedRoundsMesh(t *testing.T) {
	// The 5x5 case of Figure 5: 3 rounds.  The 9x9 case of Figure 1: 7.
	cases := []struct {
		m, n, want int
	}{
		{5, 5, 3},
		{9, 9, 7},
		{5, 9, 7},
		{4, 4, 3},
		{6, 6, 5},
		{3, 3, 1},
	}
	for _, c := range cases {
		if got := PredictedRoundsMesh(grid.MustDims(c.m, c.n)); got != c.want {
			t.Errorf("PredictedRoundsMesh(%dx%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestPredictedRoundsSpiral(t *testing.T) {
	// Figure 6 is the 5x5 torus cordalis: (floor(4/2)-1)*5 + ceil(5/2) = 8.
	cases := []struct {
		m, n, want int
	}{
		{5, 5, 8},  // odd m: (2-1)*5 + 3
		{4, 5, 1},  // even m: (1-1)*5 + 1
		{6, 5, 6},  // even m: (2-1)*5 + 1
		{7, 4, 10}, // odd m: (3-1)*4 + 2
		{8, 6, 13}, // even m: (3-1)*6 + 1
	}
	for _, c := range cases {
		if got := PredictedRoundsSpiral(grid.MustDims(c.m, c.n)); got != c.want {
			t.Errorf("PredictedRoundsSpiral(%dx%d) = %d, want %d", c.m, c.n, got, c.want)
		}
	}
}

func TestPredictedRoundsSerpentinusColumn(t *testing.T) {
	// The column-seeded variant swaps the roles of m and n.
	if PredictedRoundsSerpentinusColumn(grid.MustDims(5, 7)) != PredictedRoundsSpiral(grid.MustDims(7, 5)) {
		t.Error("column variant should equal the transposed row variant")
	}
}

func TestPredictedRoundsDispatch(t *testing.T) {
	if PredictedRounds(grid.KindToroidalMesh, grid.MustDims(5, 5)) != 3 {
		t.Error("mesh dispatch wrong")
	}
	if PredictedRounds(grid.KindTorusCordalis, grid.MustDims(5, 5)) != 8 {
		t.Error("cordalis dispatch wrong")
	}
	// Serpentinus with m < n uses the column-seeded formula.
	if PredictedRounds(grid.KindTorusSerpentinus, grid.MustDims(4, 9)) !=
		PredictedRoundsSerpentinusColumn(grid.MustDims(4, 9)) {
		t.Error("serpentinus dispatch should use the column variant when m < n")
	}
	if PredictedRounds(grid.KindTorusSerpentinus, grid.MustDims(9, 4)) !=
		PredictedRoundsSpiral(grid.MustDims(9, 4)) {
		t.Error("serpentinus dispatch should use the row variant when n <= m")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := [][3]int{{4, 2, 2}, {5, 2, 3}, {1, 2, 1}, {0, 3, 0}, {7, 3, 3}}
	for _, c := range cases {
		if got := ceilDiv(c[0], c[1]); got != c[2] {
			t.Errorf("ceilDiv(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}
