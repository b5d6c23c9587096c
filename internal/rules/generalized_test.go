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
	// maxColor's four-neighbor case and its slot tally, wide neighborhoods
	// (more than four distinct colors) included.
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
		t.Fatal("test never drew more than four distinct colors; widen the sampling")
	}
}
