package rules

import "repro/internal/color"

// GeneralizedSMP extends the paper's SMP-Protocol to vertices of arbitrary
// degree d: a vertex adopts a color when that color is held by at least
// ⌈d/2⌉ of its neighbors and is the unique color attaining the maximum
// multiplicity; otherwise it keeps its current color.  On 4-regular graphs
// this coincides with the torus SMP rule for the 4+0, 3+1 and 2+1+1 patterns
// and keeps the current color on 2+2 ties, matching Algorithm 1 (pinned
// exhaustively by tests in internal/graphs).
type GeneralizedSMP struct{}

// Name returns "generalized-smp".
func (GeneralizedSMP) Name() string { return "generalized-smp" }

// Next applies the rule to a neighborhood of arbitrary size d =
// len(neighbors), tallied exactly at any degree and palette without a
// per-vertex map (maxColor).  It is the rule's one form: the engine calls
// it for every vertex of an irregular graph, so it must not allocate.
func (GeneralizedSMP) Next(current color.Color, neighbors []color.Color) color.Color {
	if len(neighbors) == 0 {
		return current
	}
	best, count, unique := maxColor(neighbors)
	if unique && count >= (len(neighbors)+1)/2 {
		return best
	}
	return current
}
