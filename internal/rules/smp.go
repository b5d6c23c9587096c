package rules

import "repro/internal/color"

// SMP is the paper's "simple majority with persuadable entities" protocol
// (Algorithm 1).  Writing the four neighbors of x as a, b, c, d, the vertex
// recolors to r(a) when
//
//	(r(a) = r(b) ∧ r(c) ≠ r(d))  ∨  (r(a) = r(b) = r(c) = r(d)).
//
// Over all relabelings of the four neighbor ports this is equivalent to:
//
//   - if some color appears on at least three neighbors, adopt it;
//   - if exactly one color appears on exactly two neighbors and the other
//     two neighbors carry two different colors (the 2+1+1 pattern), adopt
//     the pair's color;
//   - otherwise (a 2+2 tie, or four distinct colors) keep the current
//     color.
//
// The 2+2 case is precisely where the paper departs from the Prefer-Black /
// Prefer-Current variants of [15], [26].
type SMP struct{}

// Name returns "smp".
func (SMP) Name() string { return "smp" }

// Next applies the SMP-Protocol to one vertex.
func (SMP) Next(current color.Color, neighbors []color.Color) color.Color {
	best, count, unique := maxColor(neighbors)
	switch {
	case count >= 3:
		// Either 4+0 or 3+1: a strict majority color exists; adopt it.
		return best
	case count == 2 && unique:
		// The 2+1+1 pattern: one pair, remaining neighbors mutually
		// different.  (If the maximum 2 were not unique we would be in the
		// 2+2 tie, which keeps the current color.)
		return best
	default:
		return current
	}
}
