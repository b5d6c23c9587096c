package rules

import (
	"testing"

	"repro/internal/color"
	"repro/internal/rng"
)

// TestRulesCountColorsArrivingNinth: every rule decides on the exact
// multiset, so a decisive color that arrives after eight distinct others
// still counts.
func TestRulesCountColorsArrivingNinth(t *testing.T) {
	others := nb(2, 3, 4, 5, 6, 7, 8, 9)
	after := func(decisive color.Color, n int) []color.Color {
		ns := append([]color.Color(nil), others...)
		for i := 0; i < n; i++ {
			ns = append(ns, decisive)
		}
		return ns
	}
	cases := []struct {
		rule      Rule
		current   color.Color
		neighbors []color.Color
		want      color.Color
	}{
		{SMP{}, 10, after(1, 3), 1},
		{SimpleMajorityPB{Black: 10}, 1, after(10, 2), 10},
		{SimpleMajorityPC{}, 10, after(1, 3), 1},
		{StrongMajority{}, 10, after(1, 3), 1},
		{Threshold{Target: 1, Theta: 2}, 10, after(1, 2), 1},
		{Increment{K: 20}, 1, nb(3, 4, 5, 6, 7, 8, 9, 10, 2, 2, 2), 2},
		{IrreversibleSMP{Target: 1}, 10, after(1, 3), 1},
		{GeneralizedSMP{}, 10, after(1, 8), 1},
	}
	for _, c := range cases {
		if got := c.rule.Next(c.current, c.neighbors); got != c.want {
			t.Errorf("%s.Next(%d, %v) = %d, want %d", c.rule.Name(), c.current, c.neighbors, got, c.want)
		}
	}
}

// TestRulesPermutationInvariantWideNeighborhoods: the rules whose decision
// reads only multiplicities (no first-seen tie break) answer the same under
// any order of a neighborhood of 1–64 colors from {1..20}.  smp and
// irreversible-smp are left out: with six or more neighbors a tied count of
// three or more adopts the first color seen, by definition.
func TestRulesPermutationInvariantWideNeighborhoods(t *testing.T) {
	var ruleSet []Rule
	for _, name := range []string{"pb", "pc", "strong-majority", "threshold", "threshold-4", "increment", "generalized-smp"} {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ruleSet = append(ruleSet, r)
	}
	src := rng.New(26)
	for trial := 0; trial < 3000; trial++ {
		ns := make([]color.Color, 1+src.Intn(64))
		// A small palette per trial mixes wide neighborhoods with ones
		// whose counts run high enough for the majority rules to fire.
		palette := 1 + src.Intn(20)
		for i := range ns {
			ns[i] = color.Color(1 + src.Intn(palette))
		}
		current := color.Color(1 + src.Intn(20))
		perm := append([]color.Color(nil), ns...)
		src.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, r := range ruleSet {
			a, b := r.Next(current, ns), r.Next(current, perm)
			if a != b {
				t.Fatalf("%s%+v: Next(%d, %v) = %d but Next(%d, %v) = %d", r.Name(), r, current, ns, a, current, perm, b)
			}
		}
	}
}

// TestMaxColorFourNeighborsMatchesMaxOf pins maxColor's four-neighbor case
// to maxOf, the scanning tally, on every ordered 4-tuple over {1..9}: the
// same winner, multiplicity and uniqueness, first-seen tie break included.
func TestMaxColorFourNeighborsMatchesMaxOf(t *testing.T) {
	for a := color.Color(1); a <= 9; a++ {
		for b := color.Color(1); b <= 9; b++ {
			for c := color.Color(1); c <= 9; c++ {
				for d := color.Color(1); d <= 9; d++ {
					ns := nb(int(a), int(b), int(c), int(d))
					gb, gc, gu := maxColor(ns)
					wb, wc, wu := maxOf(ns)
					if gb != wb || gc != wc || gu != wu {
						t.Fatalf("maxColor(%v) = (%d, %d, %v), maxOf = (%d, %d, %v)", ns, gb, gc, gu, wb, wc, wu)
					}
				}
			}
		}
	}
}
