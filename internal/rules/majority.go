package rules

import "repro/internal/color"

// SimpleMajorityPB is the reverse simple majority rule of Flocchini et al.
// [15] with Peleg's Prefer-Black tie policy: a vertex always takes the color
// of the majority of its four neighbors, and a 2-2 tie involving the
// preferred ("black") color resolves in favor of that color.
//
// The rule is "reverse" in the sense that recoloring is reversible: a black
// vertex surrounded by a white majority becomes white again.  It is defined
// for bi-colored tori; on neighborhoods containing more than two colors it
// degenerates to "adopt the black color iff at least two neighbors are
// black", which is the natural multicolor reading of Prefer-Black and is
// only used by the comparison experiments.
type SimpleMajorityPB struct {
	// Black is the preferred color (the paper's faulty/black color).
	Black color.Color
}

// Name returns "simple-majority-pb".
func (SimpleMajorityPB) Name() string { return "simple-majority-pb" }

// Next applies the rule.
func (r SimpleMajorityPB) Next(current color.Color, neighbors []color.Color) color.Color {
	if countOf(neighbors, r.Black) >= 2 {
		return r.Black
	}
	// Fewer than two black neighbors: adopt the majority among the others,
	// falling back to the current color when there is no unique majority.
	best, count, unique := maxColor(neighbors)
	if unique && count >= 2 {
		return best
	}
	return current
}

// SimpleMajorityPC is the reverse simple majority rule with the
// Prefer-Current tie policy: the vertex adopts a color only when that color
// is carried by a strict majority (at least three of four neighbors);
// otherwise it keeps its current color.  With four neighbors this makes the
// 2-2 tie a no-op, matching the paper's description of Prefer-Current.
type SimpleMajorityPC struct{}

// Name returns "simple-majority-pc".
func (SimpleMajorityPC) Name() string { return "simple-majority-pc" }

// Next applies the rule.
func (SimpleMajorityPC) Next(current color.Color, neighbors []color.Color) color.Color {
	best, count, unique := maxColor(neighbors)
	if unique && count >= 3 {
		return best
	}
	return current
}

// StrongMajority is the reverse strong majority rule of [15]: a vertex
// recolors only when at least ⌈(d+1)/2⌉ = 3 of its four neighbors agree on a
// color.  The paper's Proposition 2 uses it to derive (loose) upper bounds
// for the multicolored problem.
type StrongMajority struct{}

// Name returns "strong-majority".
func (StrongMajority) Name() string { return "strong-majority" }

// Next applies the rule.
func (StrongMajority) Next(current color.Color, neighbors []color.Color) color.Color {
	best, count, unique := maxColor(neighbors)
	if unique && count >= 3 {
		return best
	}
	return current
}

// Threshold is the irreversible linear-threshold rule of the target set
// selection literature: an inactive vertex activates (adopts Target) once at
// least Theta of its neighbors are active, and active vertices never revert.
// It is the baseline the paper's introduction refers to when discussing TSS
// and viral marketing.
type Threshold struct {
	// Target is the "active" color being spread.
	Target color.Color
	// Theta is the activation threshold (e.g. 2 for simple majority on a
	// torus, 3 for strong majority).
	Theta int
}

// Name returns "threshold".
func (Threshold) Name() string { return "threshold" }

// Next applies the rule.
func (r Threshold) Next(current color.Color, neighbors []color.Color) color.Color {
	if current == r.Target {
		return current
	}
	if countOf(neighbors, r.Target) >= r.Theta {
		return r.Target
	}
	return current
}
