package rules

import "repro/internal/color"

// Counts is the fixed-size color-count vector of a torus neighborhood: the
// multiset of the four neighbor colors, kept as parallel (color, count)
// arrays.  Four neighbors can carry at most four distinct colors, so the
// capacity is exactly grid.Degree and Add never overflows in the engine.
//
// Counts is deliberately passed by value through the CountRule interface:
// a pointer argument to an interface method escapes to the heap in Go's
// escape analysis, and the whole point of the type is to keep the engine's
// steady-state inner loop allocation-free.
type Counts struct {
	colors [4]color.Color
	count  [4]uint8
	n      uint8
}

// Add records one neighbor color.  Adding a fifth distinct color is a
// programmer error and is silently ignored (it cannot happen with four
// neighbors).
func (cs *Counts) Add(c color.Color) {
	for i := uint8(0); i < cs.n; i++ {
		if cs.colors[i] == c {
			cs.count[i]++
			return
		}
	}
	if int(cs.n) < len(cs.colors) {
		cs.colors[cs.n] = c
		cs.count[cs.n] = 1
		cs.n++
	}
}

// AddOK records one neighbor color and reports whether the vector still
// represents the multiset exactly.  It returns false — leaving the vector
// useless — when a fifth distinct color arrives or a multiplicity would
// overflow the uint8 counter.  Neither can happen on the degree-4 tori;
// the general-graph stepper uses AddOK to tally arbitrary-degree
// neighborhoods and falls back to the exact slice path for the rare vertex
// whose neighborhood does not fit (more than four distinct colors, or a
// single color repeated 256+ times).
func (cs *Counts) AddOK(c color.Color) bool {
	for i := uint8(0); i < cs.n; i++ {
		if cs.colors[i] == c {
			if cs.count[i] == ^uint8(0) {
				return false
			}
			cs.count[i]++
			return true
		}
	}
	if int(cs.n) == len(cs.colors) {
		return false
	}
	cs.colors[cs.n] = c
	cs.count[cs.n] = 1
	cs.n++
	return true
}

// Total returns the number of neighbor colors recorded, i.e. the degree of
// the tallied vertex.  Degree-aware rules (GeneralizedSMP) derive their
// majority threshold from it; the torus rules ignore it because their
// thresholds hard-code the degree-4 neighborhood.
func (cs *Counts) Total() int {
	total := 0
	for i := uint8(0); i < cs.n; i++ {
		total += int(cs.count[i])
	}
	return total
}

// Max returns the color with the highest multiplicity, that multiplicity,
// and whether the maximum is attained by exactly one color.
func (cs *Counts) Max() (color.Color, int, bool) {
	best := color.None
	bestCount := uint8(0)
	unique := true
	for i := uint8(0); i < cs.n; i++ {
		switch {
		case cs.count[i] > bestCount:
			best, bestCount, unique = cs.colors[i], cs.count[i], true
		case cs.count[i] == bestCount:
			unique = false
		}
	}
	return best, int(bestCount), unique
}

// Of returns the multiplicity of c.
func (cs *Counts) Of(c color.Color) int {
	for i := uint8(0); i < cs.n; i++ {
		if cs.colors[i] == c {
			return int(cs.count[i])
		}
	}
	return 0
}

// CountRule is the counts-based fast path of a Rule: the same decision
// function, but taking the pre-tallied color-count vector of the four
// neighbors instead of the raw neighbor slice.  The simulation engine
// detects the interface once at construction and then drives the inner loop
// through NextFromCounts, so no per-vertex neighbor slice is built and no
// rule re-tallies a multiset the engine already has.
//
// NextFromCounts must agree with Next on every four-neighbor multiset:
// NextFromCounts(c, cs) == Next(c, ns) whenever cs tallies ns.  All rules
// shipped by this package implement CountRule; externally registered rules
// may ignore it and the engine falls back to the slice path.
type CountRule interface {
	Rule
	// NextFromCounts returns the vertex's color at time t+1 given its color
	// and the tallied colors of its four neighbors at time t.
	NextFromCounts(current color.Color, cs Counts) color.Color
}

// NextFromCounts applies the SMP-Protocol to one tallied neighborhood.
func (SMP) NextFromCounts(current color.Color, cs Counts) color.Color {
	best, count, unique := cs.Max()
	switch {
	case count >= 3:
		return best
	case count == 2 && unique:
		return best
	default:
		return current
	}
}

// NextFromCounts applies the Prefer-Black reverse simple majority rule to
// one tallied neighborhood.
func (r SimpleMajorityPB) NextFromCounts(current color.Color, cs Counts) color.Color {
	if cs.Of(r.Black) >= 2 {
		return r.Black
	}
	best, count, unique := cs.Max()
	if unique && count >= 2 {
		return best
	}
	return current
}

// NextFromCounts applies the Prefer-Current reverse simple majority rule to
// one tallied neighborhood.
func (SimpleMajorityPC) NextFromCounts(current color.Color, cs Counts) color.Color {
	best, count, unique := cs.Max()
	if unique && count >= 3 {
		return best
	}
	return current
}

// NextFromCounts applies the reverse strong majority rule to one tallied
// neighborhood.
func (StrongMajority) NextFromCounts(current color.Color, cs Counts) color.Color {
	best, count, unique := cs.Max()
	if unique && count >= 3 {
		return best
	}
	return current
}

// NextFromCounts applies the irreversible linear-threshold rule to one
// tallied neighborhood.
func (r Threshold) NextFromCounts(current color.Color, cs Counts) color.Color {
	if current == r.Target {
		return current
	}
	if cs.Of(r.Target) >= r.Theta {
		return r.Target
	}
	return current
}

// NextFromCounts applies the ordered-color increment rule to one tallied
// neighborhood.
func (r Increment) NextFromCounts(current color.Color, cs Counts) color.Color {
	best, count, unique := cs.Max()
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

// NextFromCounts applies the monotone restriction of the SMP-Protocol to one
// tallied neighborhood.
func (r IrreversibleSMP) NextFromCounts(current color.Color, cs Counts) color.Color {
	if current == r.Target {
		return current
	}
	if next := (SMP{}).NextFromCounts(current, cs); next == r.Target {
		return next
	}
	return current
}
