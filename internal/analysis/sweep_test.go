package analysis

import (
	"testing"

	"repro/internal/grid"
)

func TestRunPointMesh(t *testing.T) {
	rec := RunPoint(Point{Kind: grid.KindToroidalMesh, M: 6, N: 6, Colors: 5})
	if rec.Err != nil {
		t.Fatal(rec.Err)
	}
	if rec.SeedSize != rec.LowerBound || rec.LowerBound != 10 {
		t.Errorf("seed %d, lower bound %d", rec.SeedSize, rec.LowerBound)
	}
	if !rec.IsDynamo || !rec.Monotone || !rec.ConditionsOK {
		t.Errorf("unexpected record %+v", rec)
	}
	if rec.Rounds <= 0 {
		t.Error("rounds should be positive")
	}
}

func TestRunPointReportsErrors(t *testing.T) {
	rec := RunPoint(Point{Kind: grid.KindToroidalMesh, M: 4, N: 4, Colors: 4})
	if rec.Err == nil {
		t.Skip("4x4 with 4 colors unexpectedly succeeded")
	}
	if rec.Construction != "error" {
		t.Errorf("construction label = %q", rec.Construction)
	}
}
