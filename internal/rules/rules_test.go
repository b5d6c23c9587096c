package rules

import (
	"testing"
	"testing/quick"

	"repro/internal/color"
	"repro/internal/rng"
)

func nb(cs ...int) []color.Color {
	out := make([]color.Color, len(cs))
	for i, c := range cs {
		out[i] = color.Color(c)
	}
	return out
}

func TestSMPAllCases(t *testing.T) {
	cases := []struct {
		name      string
		current   int
		neighbors []int
		want      int
	}{
		{"all four same", 5, []int{2, 2, 2, 2}, 2},
		{"three against one", 5, []int{2, 2, 2, 3}, 2},
		{"pair plus two distinct", 5, []int{2, 2, 3, 4}, 2},
		{"pair plus two distinct, pair scattered", 5, []int{3, 2, 4, 2}, 2},
		{"two-two tie keeps current", 5, []int{2, 2, 3, 3}, 5},
		{"two-two tie involving own color keeps current", 2, []int{2, 2, 3, 3}, 2},
		{"four distinct keeps current", 5, []int{1, 2, 3, 4}, 5},
		{"pair of own color recolors to own color (no-op)", 2, []int{2, 2, 3, 4}, 2},
		{"three of own color", 2, []int{2, 2, 2, 7}, 2},
	}
	rule := SMP{}
	for _, tc := range cases {
		got := rule.Next(color.Color(tc.current), nb(tc.neighbors...))
		if got != color.Color(tc.want) {
			t.Errorf("%s: Next(%d, %v) = %v, want %v", tc.name, tc.current, tc.neighbors, got, tc.want)
		}
	}
}

func TestSMPIsPermutationInvariant(t *testing.T) {
	// The rule is defined on the multiset of neighbor colors, so any
	// permutation of the neighbor slice must give the same result.
	f := func(seed uint64, cur uint8) bool {
		src := rng.New(seed)
		current := color.Color(1 + int(cur)%5)
		ns := make([]color.Color, 4)
		for i := range ns {
			ns[i] = color.Color(1 + src.Intn(5))
		}
		want := SMP{}.Next(current, ns)
		for trial := 0; trial < 10; trial++ {
			perm := src.Perm(4)
			shuffled := make([]color.Color, 4)
			for i, p := range perm {
				shuffled[i] = ns[p]
			}
			if (SMP{}).Next(current, shuffled) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSMPMatchesLiteralDefinition(t *testing.T) {
	// Brute-force the literal quantified form of Algorithm 1: there exist
	// labels a,b,c,d of the four ports such that r(a)=r(b) and r(c)!=r(d),
	// or all four are equal; in that case the new color is r(a).
	literal := func(current color.Color, ns []color.Color) color.Color {
		n := len(ns)
		allEqual := true
		for _, v := range ns {
			if v != ns[0] {
				allEqual = false
			}
		}
		if allEqual {
			return ns[0]
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if b == a || ns[a] != ns[b] {
					continue
				}
				// remaining two ports
				var rest []color.Color
				for i := 0; i < n; i++ {
					if i != a && i != b {
						rest = append(rest, ns[i])
					}
				}
				if rest[0] != rest[1] {
					return ns[a]
				}
			}
		}
		return current
	}
	// Note: the literal form can be ambiguous when two different colors each
	// form a pair while the other two ports differ — that cannot happen with
	// four ports (two pairs means the other two ports are the second pair,
	// which are equal), so the quantified form is well defined and must agree
	// with the multiset implementation on every neighborhood.
	for c1 := 1; c1 <= 4; c1++ {
		for c2 := 1; c2 <= 4; c2++ {
			for c3 := 1; c3 <= 4; c3++ {
				for c4 := 1; c4 <= 4; c4++ {
					for cur := 1; cur <= 4; cur++ {
						ns := nb(c1, c2, c3, c4)
						want := literal(color.Color(cur), ns)
						got := SMP{}.Next(color.Color(cur), ns)
						if got != want {
							t.Fatalf("SMP(%d, %v) = %v, literal definition gives %v", cur, ns, got, want)
						}
					}
				}
			}
		}
	}
}

func TestSimpleMajorityPB(t *testing.T) {
	rule := SimpleMajorityPB{Black: 2}
	cases := []struct {
		current   int
		neighbors []int
		want      int
	}{
		{1, []int{2, 2, 1, 1}, 2}, // tie resolves to black
		{2, []int{1, 1, 2, 2}, 2},
		{2, []int{1, 1, 1, 2}, 1}, // black vertex reverts on white majority
		{1, []int{1, 1, 1, 2}, 1},
		{1, []int{2, 2, 2, 2}, 2},
		{2, []int{1, 1, 1, 1}, 1},
	}
	for _, tc := range cases {
		got := rule.Next(color.Color(tc.current), nb(tc.neighbors...))
		if got != color.Color(tc.want) {
			t.Errorf("PB Next(%d, %v) = %v, want %v", tc.current, tc.neighbors, got, tc.want)
		}
	}
}

func TestSimpleMajorityPC(t *testing.T) {
	rule := SimpleMajorityPC{}
	cases := []struct {
		current   int
		neighbors []int
		want      int
	}{
		{1, []int{2, 2, 1, 1}, 1}, // tie keeps current
		{2, []int{1, 1, 2, 2}, 2},
		{1, []int{2, 2, 2, 1}, 2},
		{2, []int{1, 1, 1, 2}, 1},
		{1, []int{2, 2, 2, 2}, 2},
	}
	for _, tc := range cases {
		got := rule.Next(color.Color(tc.current), nb(tc.neighbors...))
		if got != color.Color(tc.want) {
			t.Errorf("PC Next(%d, %v) = %v, want %v", tc.current, tc.neighbors, got, tc.want)
		}
	}
}

func TestSMPDiffersFromPBOnTies(t *testing.T) {
	// The paper's Remark: with two black and two white neighbors, [15]'s
	// Prefer-Black rule recolors black whereas SMP keeps the current color.
	ns := nb(2, 2, 1, 1)
	if got := (SimpleMajorityPB{Black: 2}).Next(1, ns); got != 2 {
		t.Fatalf("PB should recolor to black on a tie, got %v", got)
	}
	if got := (SMP{}).Next(1, ns); got != 1 {
		t.Fatalf("SMP should keep the current color on a tie, got %v", got)
	}
}

func TestStrongMajority(t *testing.T) {
	rule := StrongMajority{}
	cases := []struct {
		current   int
		neighbors []int
		want      int
	}{
		{1, []int{2, 2, 2, 1}, 2},
		{1, []int{2, 2, 1, 1}, 1},
		{1, []int{2, 2, 3, 4}, 1},
		{3, []int{2, 2, 2, 2}, 2},
		{1, []int{1, 2, 3, 4}, 1},
	}
	for _, tc := range cases {
		got := rule.Next(color.Color(tc.current), nb(tc.neighbors...))
		if got != color.Color(tc.want) {
			t.Errorf("strong Next(%d, %v) = %v, want %v", tc.current, tc.neighbors, got, tc.want)
		}
	}
}

func TestStrongMajorityIsMoreRestrictiveThanSMP(t *testing.T) {
	// Proposition 2's item (b): whenever the strong majority rule recolors a
	// vertex, the SMP rule recolors it too (to the same color).  Exhaustive
	// over all 4-color neighborhoods.
	for c1 := 1; c1 <= 4; c1++ {
		for c2 := 1; c2 <= 4; c2++ {
			for c3 := 1; c3 <= 4; c3++ {
				for c4 := 1; c4 <= 4; c4++ {
					for cur := 1; cur <= 4; cur++ {
						ns := nb(c1, c2, c3, c4)
						strong := StrongMajority{}.Next(color.Color(cur), ns)
						if strong == color.Color(cur) {
							continue
						}
						smp := SMP{}.Next(color.Color(cur), ns)
						if smp != strong {
							t.Fatalf("strong majority recolors %d->%v on %v but SMP gives %v", cur, strong, ns, smp)
						}
					}
				}
			}
		}
	}
}

func TestThreshold(t *testing.T) {
	rule := Threshold{Target: 2, Theta: 2}
	if got := rule.Next(1, nb(2, 2, 1, 1)); got != 2 {
		t.Errorf("threshold activation failed: %v", got)
	}
	if got := rule.Next(1, nb(2, 1, 1, 1)); got != 1 {
		t.Errorf("below-threshold vertex should stay: %v", got)
	}
	// Irreversibility: an active vertex never reverts.
	if got := rule.Next(2, nb(1, 1, 1, 1)); got != 2 {
		t.Errorf("threshold rule must be irreversible: %v", got)
	}
	strict := Threshold{Target: 2, Theta: 3}
	if got := strict.Next(1, nb(2, 2, 1, 1)); got != 1 {
		t.Errorf("theta=3 should not activate with 2 active neighbors: %v", got)
	}
}

func TestIncrement(t *testing.T) {
	rule := Increment{K: 4}
	// Persuaded by a pair of a higher color: increments by one, does not copy.
	if got := rule.Next(1, nb(3, 3, 2, 4)); got != 2 {
		t.Errorf("increment should move 1 -> 2, got %v", got)
	}
	// Not persuaded by lower colors.
	if got := rule.Next(3, nb(1, 1, 2, 4)); got != 3 {
		t.Errorf("lower-color pair should not persuade, got %v", got)
	}
	// Ties do not persuade.
	if got := rule.Next(1, nb(2, 2, 3, 3)); got != 1 {
		t.Errorf("tie should not persuade, got %v", got)
	}
	// Saturation at K.
	if got := rule.Next(4, nb(9, 9, 9, 9)); got != 4 {
		t.Errorf("increment must saturate at K, got %v", got)
	}
	if got := (Increment{K: 4}).Next(3, nb(4, 4, 4, 4)); got != 4 {
		t.Errorf("increment below K should move up, got %v", got)
	}
}

func TestIrreversibleSMP(t *testing.T) {
	rule := IrreversibleSMP{Target: 1}
	// Adopts the target exactly when SMP would.
	if got := rule.Next(3, nb(1, 1, 2, 4)); got != 1 {
		t.Errorf("should adopt the target on a qualifying pair, got %v", got)
	}
	// Never adopts a non-target color even when SMP would.
	if got := rule.Next(3, nb(2, 2, 1, 4)); got != 3 {
		t.Errorf("must not adopt non-target colors, got %v", got)
	}
	// Never leaves the target.
	if got := rule.Next(1, nb(2, 2, 2, 2)); got != 1 {
		t.Errorf("must never leave the target, got %v", got)
	}
	// Ties still keep the current color.
	if got := rule.Next(3, nb(1, 1, 2, 2)); got != 3 {
		t.Errorf("ties keep the current color, got %v", got)
	}
	if rule.Name() != "irreversible-smp" {
		t.Error("name wrong")
	}
}

func TestIrreversibleSMPDominatedBySMPTrajectory(t *testing.T) {
	// On every neighborhood, if the irreversible rule adopts the target then
	// so does plain SMP (the irreversible rule only removes transitions).
	for c1 := 1; c1 <= 4; c1++ {
		for c2 := 1; c2 <= 4; c2++ {
			for c3 := 1; c3 <= 4; c3++ {
				for c4 := 1; c4 <= 4; c4++ {
					for cur := 2; cur <= 4; cur++ {
						ns := nb(c1, c2, c3, c4)
						irr := (IrreversibleSMP{Target: 1}).Next(color.Color(cur), ns)
						if irr == 1 && (SMP{}).Next(color.Color(cur), ns) != 1 {
							t.Fatalf("irreversible rule adopted the target on %v where SMP would not", ns)
						}
					}
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range RegisteredNames() {
		r, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if r.Name() == "" {
			t.Errorf("rule %q has empty Name", name)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown rule name")
	}
	// Aliases.
	if r, err := ByName("pb"); err != nil || r.Name() != "simple-majority-pb" {
		t.Errorf("alias pb broken: %v %v", r, err)
	}
	if r, err := ByName("pc"); err != nil || r.Name() != "simple-majority-pc" {
		t.Errorf("alias pc broken: %v %v", r, err)
	}
}

func TestRuleNames(t *testing.T) {
	names := map[string]Rule{
		"smp":                SMP{},
		"simple-majority-pb": SimpleMajorityPB{Black: 1},
		"simple-majority-pc": SimpleMajorityPC{},
		"strong-majority":    StrongMajority{},
		"threshold":          Threshold{Target: 1, Theta: 2},
		"increment":          Increment{K: 3},
	}
	for want, rule := range names {
		if rule.Name() != want {
			t.Errorf("Name() = %q, want %q", rule.Name(), want)
		}
	}
}

func TestTallyHandlesManyColors(t *testing.T) {
	// More than 8 distinct colors, which torus neighborhoods never produce,
	// are counted exactly: twelve singletons tie, so SMP keeps current.
	ns := make([]color.Color, 12)
	for i := range ns {
		ns[i] = color.Color(i + 1)
	}
	if best, count, unique := maxColor(ns); best != 1 || count != 1 || unique {
		t.Errorf("maxColor on 12 distinct colors = %v %v %v, want 1 1 false", best, count, unique)
	}
	if got := (SMP{}).Next(1, ns); got != 1 {
		t.Errorf("SMP on 12 distinct colors should keep current, got %v", got)
	}
}

func TestCountsMaxUniqueness(t *testing.T) {
	if _, _, unique := maxColor(nb(1, 1, 2, 2)); unique {
		t.Error("2-2 tally should not report a unique maximum")
	}
	best, count, unique := maxColor(nb(1, 1, 2, 3))
	if best != 1 || count != 2 || !unique {
		t.Errorf("2-1-1 tally wrong: %v %v %v", best, count, unique)
	}
	if countOf(nb(1, 1, 2, 3), 2) != 1 || countOf(nb(1, 1, 2, 3), 9) != 0 {
		t.Error("countOf wrong")
	}
}
