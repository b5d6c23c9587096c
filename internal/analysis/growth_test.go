package analysis

import (
	"strconv"
	"testing"

	"repro/internal/color"
	"repro/internal/dynamo"
)

func TestGrowthCurveMonotoneDynamo(t *testing.T) {
	c, err := dynamo.MeshMinimum(9, 9, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	curve := GrowthCurve(c.Topology, c.Coloring, 1)
	if curve[0] != c.SeedSize() {
		t.Errorf("curve starts at %d, want the seed size %d", curve[0], c.SeedSize())
	}
	if curve[len(curve)-1] != c.Topology.Dims().N() {
		t.Errorf("curve ends at %d, want %d", curve[len(curve)-1], c.Topology.Dims().N())
	}
	if !IsNonDecreasing(curve) {
		t.Error("a monotone dynamo must have a non-decreasing growth curve")
	}
	// The number of rounds equals the verified convergence time.
	if len(curve)-1 != dynamo.Verify(c).Rounds {
		t.Errorf("curve has %d rounds, verification reports %d", len(curve)-1, dynamo.Verify(c).Rounds)
	}
}

func TestGrowthCurveNonDynamoPlateaus(t *testing.T) {
	c, err := dynamo.BlockedCross(8, 8, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	curve := GrowthCurve(c.Topology, c.Coloring, 1)
	if curve[len(curve)-1] == c.Topology.Dims().N() {
		t.Error("the blocked configuration must not reach full coverage")
	}
}

func TestIncrementsAndHelpers(t *testing.T) {
	curve := []int{3, 5, 8, 8, 10}
	inc := Increments(curve)
	want := []int{2, 3, 0, 2}
	for i := range want {
		if inc[i] != want[i] {
			t.Fatalf("Increments = %v, want %v", inc, want)
		}
	}
	if Increments([]int{7}) != nil {
		t.Error("single-point curve has no increments")
	}
	if !IsNonDecreasing(curve) {
		t.Error("curve should be non-decreasing")
	}
	if IsNonDecreasing([]int{3, 2}) {
		t.Error("decreasing curve misclassified")
	}
	if PeakIncrement(curve) != 3 {
		t.Errorf("PeakIncrement = %d, want 3", PeakIncrement(curve))
	}
	if PeakIncrement([]int{5}) != 0 {
		t.Error("PeakIncrement of a flat curve should be 0")
	}
	if sumInts([]int{1, 2, 3}) != 6 {
		t.Error("sumInts wrong")
	}
}

func TestMeshWaveIsFasterThanCordalisSweep(t *testing.T) {
	// The Section III.D contrast: on same-size tori the mesh wave converges
	// in far fewer rounds and has a much larger peak per-round growth than
	// the cordalis row-by-row sweep.
	mesh, err := dynamo.MeshMinimum(9, 9, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	cord, err := dynamo.CordalisMinimum(9, 9, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	meshCurve := GrowthCurve(mesh.Topology, mesh.Coloring, 1)
	cordCurve := GrowthCurve(cord.Topology, cord.Coloring, 1)
	if len(meshCurve) >= len(cordCurve) {
		t.Errorf("mesh should converge faster: %d vs %d rounds", len(meshCurve)-1, len(cordCurve)-1)
	}
	if PeakIncrement(meshCurve) <= PeakIncrement(cordCurve) {
		t.Errorf("mesh peak growth %d should exceed cordalis peak growth %d",
			PeakIncrement(meshCurve), PeakIncrement(cordCurve))
	}
}

func TestE17SubBoundSearchTable(t *testing.T) {
	if testing.Short() {
		t.Skip("random search is slow; skipped in -short mode")
	}
	tbl := E17SubBoundSearch()
	violated := 0
	for _, row := range tbl.Rows {
		if row[4] == "yes" {
			violated++
			m, _ := strconv.Atoi(row[0])
			n, _ := strconv.Atoi(row[1])
			if m >= 6 && n >= 6 {
				t.Errorf("unexpected sub-bound monotone dynamo on a %dx%d torus", m, n)
			}
		}
	}
	if violated == 0 {
		t.Error("the search should reproduce the small-torus counterexamples")
	}
}

func TestE18PropagationPattern(t *testing.T) {
	tbl := E18PropagationPattern()
	if len(tbl.Rows) < 5 {
		t.Fatalf("unexpected table %+v", tbl)
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "peak per round" {
		t.Fatalf("unexpected last row %v", last)
	}
	total := tbl.Rows[len(tbl.Rows)-2]
	// Both topologies recolor all non-seed vertices: 81-16 and 81-10.
	if total[1] != "65" || total[2] != "71" {
		t.Errorf("totals = %v, want 65 and 71", total)
	}
}

// IsNonDecreasing reports whether the curve never decreases — the growth
// signature of a monotone dynamo.
func IsNonDecreasing(curve []int) bool {
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			return false
		}
	}
	return true
}
