package rules

import "repro/internal/color"

// IrreversibleSMP is the monotone (irreversible) restriction of the
// SMP-Protocol: vertices that have adopted the Target color never leave it,
// and other vertices change only when the SMP condition would recolor them
// *to* the Target color.  The paper's introduction distinguishes exactly
// this monotone/non-monotone axis ("the impossibility of a node to return
// in its initial state determines the monotone behavior of the activation
// process"); the rule is used by the comparison experiments as the bridge
// between the SMP-Protocol and the irreversible threshold model of TSS.
type IrreversibleSMP struct {
	// Target is the absorbing color.
	Target color.Color
}

// Name returns "irreversible-smp".
func (IrreversibleSMP) Name() string { return "irreversible-smp" }

// Next applies the rule.
func (r IrreversibleSMP) Next(current color.Color, neighbors []color.Color) color.Color {
	if current == r.Target {
		return current
	}
	if next := (SMP{}).Next(current, neighbors); next == r.Target {
		return next
	}
	return current
}

// Increment is the ordered-color variant referenced in the paper's
// introduction (Brunetti, Lodi, Quattrociocchi, "Multicolored dynamos on
// toroidal meshes" [4] and "Stubborn entities in colored toroidal meshes"
// [5]): the color set is the ordered set {1..K} and a vertex that is
// persuaded to change does not copy its neighbors' color but increases its
// own color by one (saturating at K).
//
// "Persuaded" uses the same neighborhood pattern as the SMP-Protocol: a
// unique color held by at least two neighbors, with the remaining neighbors
// pairwise different, and that color strictly greater than the vertex's
// current color.
type Increment struct {
	// K is the largest color; increments saturate at K.
	K int
}

// Name returns "increment".
func (Increment) Name() string { return "increment" }

// Next applies the rule.
func (r Increment) Next(current color.Color, neighbors []color.Color) color.Color {
	best, count, unique := maxColor(neighbors)
	persuaded := (count >= 3 || (count == 2 && unique)) && unique && best > current
	if !persuaded {
		return current
	}
	next := current + 1
	if int(next) > r.K {
		next = color.Color(r.K)
	}
	return next
}
