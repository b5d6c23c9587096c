package rules

import (
	"testing"

	"repro/internal/color"
	"repro/internal/rng"
)

// mapReferenceNext is the original map-tallying implementation of the
// generalized SMP rule, kept here as the oracle the allocation-free
// rewrite is pinned against.
func mapReferenceNext(current color.Color, neighbors []color.Color) color.Color {
	if len(neighbors) == 0 {
		return current
	}
	counts := map[color.Color]int{}
	for _, c := range neighbors {
		counts[c]++
	}
	best, bestCount, unique := color.None, 0, false
	for c, n := range counts {
		switch {
		case n > bestCount:
			best, bestCount, unique = c, n, true
		case n == bestCount:
			unique = false
		}
	}
	need := (len(neighbors) + 1) / 2
	if unique && bestCount >= need {
		return best
	}
	return current
}

func TestGeneralizedSMPMatchesMapReferenceExhaustively(t *testing.T) {
	// Every degree-4 neighborhood over five colors, every current color:
	// the no-map rewrite must agree with the original map implementation.
	gen := GeneralizedSMP{}
	for c1 := 1; c1 <= 5; c1++ {
		for c2 := 1; c2 <= 5; c2++ {
			for c3 := 1; c3 <= 5; c3++ {
				for c4 := 1; c4 <= 5; c4++ {
					ns := []color.Color{color.Color(c1), color.Color(c2), color.Color(c3), color.Color(c4)}
					for cur := 1; cur <= 5; cur++ {
						got := gen.Next(color.Color(cur), ns)
						want := mapReferenceNext(color.Color(cur), ns)
						if got != want {
							t.Fatalf("Next(%d, %v) = %v, want %v", cur, ns, got, want)
						}
					}
				}
			}
		}
	}
}

func TestGeneralizedSMPMatchesMapReferenceArbitraryDegree(t *testing.T) {
	// Random neighborhoods of degree 0..12 over up to 8 colors: exercises
	// both the Counts fast path and the wide fallback (more than four
	// distinct colors cannot fit a Counts vector).
	gen := GeneralizedSMP{}
	src := rng.New(7)
	sawWide := false
	for trial := 0; trial < 20000; trial++ {
		d := src.Intn(13)
		ns := make([]color.Color, d)
		distinct := map[color.Color]bool{}
		for i := range ns {
			ns[i] = color.Color(1 + src.Intn(8))
			distinct[ns[i]] = true
		}
		if len(distinct) > 4 {
			sawWide = true
		}
		cur := color.Color(1 + src.Intn(8))
		if got, want := gen.Next(cur, ns), mapReferenceNext(cur, ns); got != want {
			t.Fatalf("Next(%d, %v) = %v, want %v", cur, ns, got, want)
		}
	}
	if !sawWide {
		t.Fatal("test never exercised the wide fallback; widen the sampling")
	}
}

func TestGeneralizedSMPNextFromCountsAgreesWithNext(t *testing.T) {
	// The CountRule contract on multisets that fit a Counts vector: the
	// engine's counts path and the slice path must agree.
	gen := GeneralizedSMP{}
	src := rng.New(11)
	for trial := 0; trial < 20000; trial++ {
		d := src.Intn(10)
		ns := make([]color.Color, d)
		for i := range ns {
			ns[i] = color.Color(1 + src.Intn(4)) // at most 4 distinct: always fits
		}
		cur := color.Color(1 + src.Intn(5))
		if got, want := gen.NextFromCounts(cur, countsOf(ns)), gen.Next(cur, ns); got != want {
			t.Fatalf("NextFromCounts(%d, %v) = %v, Next = %v", cur, ns, got, want)
		}
	}
}

func TestCountsAddOK(t *testing.T) {
	var cs Counts
	for _, c := range []color.Color{1, 2, 3, 4} {
		if !cs.AddOK(c) {
			t.Fatalf("color %v should fit", c)
		}
	}
	if cs.AddOK(5) {
		t.Fatal("a fifth distinct color must overflow")
	}
	// Repeats of recorded colors keep fitting...
	var rep Counts
	for i := 0; i < 255; i++ {
		if !rep.AddOK(1) {
			t.Fatalf("repeat %d should fit", i)
		}
	}
	// ...until the uint8 multiplicity saturates.
	if rep.AddOK(1) {
		t.Fatal("the 256th repeat must overflow the counter")
	}
	if rep.Total() != 255 {
		t.Fatalf("Total = %d, want 255", rep.Total())
	}
}

func TestCountsTotal(t *testing.T) {
	cs := countsOf([]color.Color{1, 1, 2, 3})
	if cs.Total() != 4 {
		t.Fatalf("Total = %d, want 4", cs.Total())
	}
	var empty Counts
	if empty.Total() != 0 {
		t.Fatal("empty Total should be 0")
	}
}
