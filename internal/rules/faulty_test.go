package rules

import (
	"math"
	"testing"

	"repro/internal/color"
	"repro/internal/rng"
)

// faultDraw is next unless the (round, vertex) application misfires, in
// which case it is the color the misfire draws.
func faultDraw(seed, round, v uint64, eps float64, k int, next color.Color) color.Color {
	f := NewFaultRound(seed, round, eps, k)
	if c, ok := f.Fault(v); ok {
		return c
	}
	return next
}

func TestFaultyZeroEpsIsInner(t *testing.T) {
	for round := uint64(0); round < 16; round++ {
		for v := uint64(0); v < 64; v++ {
			if got := faultDraw(9, round, v, 0, 4, 2); got != 2 {
				t.Fatalf("eps=0 draw(%d,%d) = %v, want the computed color 2", round, v, got)
			}
		}
	}
}

func TestFaultyFullEpsAlwaysFaults(t *testing.T) {
	seen := map[color.Color]bool{}
	for v := uint64(0); v < 1000; v++ {
		c := faultDraw(3, 1, v, 1, 4, 1)
		if c < 1 || c > 4 {
			t.Fatalf("faulted color %v outside palette {1..4}", c)
		}
		seen[c] = true
	}
	for c := color.Color(1); c <= 4; c++ {
		if !seen[c] {
			t.Fatalf("eps=1 never drew color %v", c)
		}
	}
}

func TestFaultyDeterministicAndCoordinateDependent(t *testing.T) {
	a := faultDraw(17, 5, 7, 0.5, 4, 2)
	if b := faultDraw(17, 5, 7, 0.5, 4, 2); a != b {
		t.Fatal("fault draw is not deterministic for fixed coordinates")
	}
	// Across many coordinates, draws must differ (the fault stream is not
	// constant) while any single coordinate is stable.
	varied := false
	for v := uint64(0); v < 100 && !varied; v++ {
		varied = faultDraw(17, 5, v, 0.5, 4, 2) != a
	}
	if !varied {
		t.Fatal("fault draw ignores the vertex coordinate")
	}
	differs := false
	for v := uint64(0); v < 100 && !differs; v++ {
		differs = faultDraw(17, 5, v, 0.5, 4, 2) != faultDraw(18, 5, v, 0.5, 4, 2)
	}
	if !differs {
		t.Fatal("fault draw ignores the seed")
	}
}

func TestFaultyRateMatchesEps(t *testing.T) {
	const eps = 0.1
	// Count deviations from a computed color that a faulted draw matches
	// only 1 time in K.
	const trials = 40000
	faultedAway := 0
	for v := uint64(0); v < trials; v++ {
		if faultDraw(41, 2, v, eps, 4, 1) != 1 {
			faultedAway++
		}
	}
	// A fault lands on a non-inner color 3 out of 4 times, so the observable
	// deviation rate is eps * (K-1)/K = 0.075.
	got := float64(faultedAway) / trials
	if math.Abs(got-eps*3/4) > 0.01 {
		t.Fatalf("observable fault rate %v, want ~%v", got, eps*3/4)
	}
}

// TestFaultDrawMatchesFloatForm pins the integer threshold of FaultRound
// to the float comparison Unit(h) < eps it replaces, on ordinary rates,
// extreme ones and eps values that sit exactly on a vertex's draw.
func TestFaultDrawMatchesFloatForm(t *testing.T) {
	floatForm := func(seed, round, v uint64, eps float64, k int, next color.Color) color.Color {
		if eps <= 0 || k < 1 || rng.Unit(rng.Hash(seed, round, v, faultTagDraw)) >= eps {
			return next
		}
		return color.Color(1 + rng.Hash(seed, round, v, faultTagColor)%uint64(k))
	}
	epss := []float64{0, 1e-300, 1e-9, 0.01, 0.5, math.Nextafter(0.5, 0), 0.999, 1}
	for v := uint64(0); v < 8; v++ {
		epss = append(epss, rng.Unit(rng.Hash(5, 3, v, faultTagDraw)))
	}
	for _, eps := range epss {
		for _, k := range []int{1, 2, 3, 4, 7} {
			for v := uint64(0); v < 2000; v++ {
				want := floatForm(5, 3, v, eps, k, 2)
				if got := faultDraw(5, 3, v, eps, k, 2); got != want {
					t.Fatalf("eps=%v k=%d v=%d: FaultDraw %v, float form %v", eps, k, v, got, want)
				}
			}
		}
	}
}

func TestThresholdThetaRegistryEntries(t *testing.T) {
	for theta := 1; theta <= 4; theta++ {
		name := map[int]string{1: "threshold-1", 2: "threshold-2", 3: "threshold-3", 4: "threshold-4"}[theta]
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		th, ok := r.(Threshold)
		if !ok {
			t.Fatalf("%s is %T, want Threshold", name, r)
		}
		if th.Theta != theta || th.Target != 1 {
			t.Fatalf("%s = %+v", name, th)
		}
	}
}
