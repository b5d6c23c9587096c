package rules

import (
	"testing"

	"repro/internal/color"
)

// countsOf tallies a neighbor slice into a Counts vector, the bridge the
// tests use to compare NextFromCounts with Next.
func countsOf(neighbors []color.Color) Counts {
	var cs Counts
	for _, c := range neighbors {
		cs.Add(c)
	}
	return cs
}

// TestCountRuleParityExhaustive checks NextFromCounts against Next on every
// four-neighbor multiset over a five-color palette, for every current color,
// for every rule shipped by the package.  This is the oracle that lets the
// engine's inner loop trust the counts fast path unconditionally.
func TestCountRuleParityExhaustive(t *testing.T) {
	const k = 5
	rs := []Rule{
		SMP{},
		SimpleMajorityPB{Black: 2},
		SimpleMajorityPC{},
		StrongMajority{},
		Threshold{Target: 1, Theta: 2},
		Increment{K: k},
		IrreversibleSMP{Target: 1},
	}
	for _, r := range rs {
		cr, ok := r.(CountRule)
		if !ok {
			t.Fatalf("rule %s does not implement CountRule", r.Name())
		}
		checked := 0
		var ns [4]color.Color
		for a := 1; a <= k; a++ {
			for b := 1; b <= k; b++ {
				for c := 1; c <= k; c++ {
					for d := 1; d <= k; d++ {
						ns[0], ns[1], ns[2], ns[3] = color.Color(a), color.Color(b), color.Color(c), color.Color(d)
						cs := countsOf(ns[:])
						for cur := 1; cur <= k; cur++ {
							want := r.Next(color.Color(cur), ns[:])
							got := cr.NextFromCounts(color.Color(cur), cs)
							if got != want {
								t.Fatalf("%s: neighbors %v current %d: counts path %v, slice path %v",
									r.Name(), ns, cur, got, want)
							}
							checked++
						}
					}
				}
			}
		}
		if checked != k*k*k*k*k {
			t.Fatalf("%s: checked %d combinations, want %d", r.Name(), checked, k*k*k*k*k)
		}
	}
}

// TestEveryRegisteredRuleImplementsCountRule keeps the registry honest: all
// rules shipped by the repository expose the counts fast path, so engine
// runs over registered rules never fall back to the slice path.
func TestEveryRegisteredRuleImplementsCountRule(t *testing.T) {
	for _, name := range RegisteredNames() {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.(CountRule); !ok {
			t.Errorf("registered rule %q does not implement CountRule", name)
		}
	}
}

// TestCountsAccessors pins the tiny multiset's behavior, including the
// duplicate-port neighborhoods of 2×n tori (the same vertex counted twice).
func TestCountsAccessors(t *testing.T) {
	cs := countsOf([]color.Color{3, 3, 1, 3})
	if got := cs.Of(3); got != 3 {
		t.Errorf("Of(3) = %d, want 3", got)
	}
	if got := cs.Of(1); got != 1 {
		t.Errorf("Of(1) = %d, want 1", got)
	}
	if got := cs.Of(9); got != 0 {
		t.Errorf("Of(9) = %d, want 0", got)
	}
	if cs.n != 2 {
		t.Errorf("%d distinct colors, want 2", cs.n)
	}
	best, count, unique := cs.Max()
	if best != 3 || count != 3 || !unique {
		t.Errorf("Max() = (%v, %d, %v), want (3, 3, true)", best, count, unique)
	}
	tie := countsOf([]color.Color{1, 1, 2, 2})
	if _, count, unique := tie.Max(); count != 2 || unique {
		t.Errorf("2+2 tie: Max count %d unique %v, want 2 false", count, unique)
	}
}
