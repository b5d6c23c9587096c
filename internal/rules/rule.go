// Package rules implements the local recoloring rules studied or referenced
// by the paper:
//
//   - the SMP-Protocol ("simple majority with persuadable entities"), the
//     paper's own rule (Algorithm 1);
//   - the reverse simple majority rule of Flocchini et al. [15] with the
//     Prefer-Black and Prefer-Current tie policies of Peleg [26];
//   - the reverse strong majority rule of [15];
//   - the irreversible linear-threshold rule of the target set selection
//     literature (Kempe/Kleinberg/Tardos style), used as a baseline;
//   - the ordered-color increment rule sketched in [4], [5].
//
// A rule is a pure function of the vertex's current color and the multiset
// of its neighbors' colors; the simulation engine applies it synchronously
// to every vertex.
package rules

import (
	"slices"

	"repro/internal/color"
)

// Rule is a local, deterministic recoloring rule.
//
// Next must not retain or mutate the neighbors slice: the engine reuses a
// single scratch buffer per worker.  Implementations must be stateless (or
// at least safe for concurrent use) because the parallel engine invokes the
// same Rule value from several goroutines.
type Rule interface {
	// Name returns a stable identifier used in experiment tables.
	Name() string
	// Next returns the vertex's color at time t+1 given its color and the
	// colors of its neighbors at time t.
	Next(current color.Color, neighbors []color.Color) color.Color
}

// maxColor returns the color with the highest multiplicity among the
// neighbors, that multiplicity, and whether exactly one color attains it;
// among tied colors the first one seen wins.  It is every rule's tally.
//
// Four neighbors, a torus vertex's, need no tally: the six pairwise
// equalities give each position the multiplicity of its color, the first
// position at the maximum m holds the first-seen winner, and j colors tied
// at m fill j·m positions, so the winner is unique exactly when m positions
// reach m.  A one-color neighborhood, most of a lattice once a run
// settles, returns before the arithmetic: that made the oracle's round
// near convergence (BenchmarkEngineStepNearConvergence/sweep-64x64) 18%
// faster in the median of 12 alternated -cpu 1 runs and left the random
// 5-color rounds unchanged (2-core Intel Xeon, Go 1.24).  Other degrees
// count the first eight distinct colors in slots, and a neighborhood that
// brings a ninth distinct color is counted by maxOf instead, so the answer
// is exact at any degree.
func maxColor(neighbors []color.Color) (color.Color, int, bool) {
	if len(neighbors) == 4 {
		a, b, c, d := neighbors[0], neighbors[1], neighbors[2], neighbors[3]
		if a == b && a == c && a == d {
			return a, 4, true
		}
		ab, ac, ad := b2i(a == b), b2i(a == c), b2i(a == d)
		bc, bd, cd := b2i(b == c), b2i(b == d), b2i(c == d)
		ma, mb, mc, md := 1+ab+ac+ad, 1+ab+bc+bd, 1+ac+bc+cd, 1+ad+bd+cd
		top := max(ma, mb, mc, md)
		best := d
		switch top {
		case ma:
			best = a
		case mb:
			best = b
		case mc:
			best = c
		}
		return best, top, b2i(ma == top)+b2i(mb == top)+b2i(mc == top)+b2i(md == top) == top
	}
	var (
		colors [8]color.Color
		count  [8]int
		n      int
	)
next:
	for _, c := range neighbors {
		for i := 0; i < n; i++ {
			if colors[i] == c {
				count[i]++
				continue next
			}
		}
		if n == len(colors) {
			return maxOf(neighbors)
		}
		colors[n], count[n] = c, 1
		n++
	}
	best, bestCount, unique := color.None, 0, true
	for i := 0; i < n; i++ {
		switch {
		case count[i] > bestCount:
			best, bestCount, unique = colors[i], count[i], true
		case count[i] == bestCount:
			unique = false
		}
	}
	return best, bestCount, unique
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// maxOf is maxColor by scanning: it visits the distinct colors in the
// order they are first seen and counts each over the rest of the slice.
func maxOf(neighbors []color.Color) (color.Color, int, bool) {
	best, bestCount, unique := color.None, 0, true
	for i, c := range neighbors {
		if slices.Contains(neighbors[:i], c) {
			continue
		}
		n := 1 + countOf(neighbors[i+1:], c)
		switch {
		case n > bestCount:
			best, bestCount, unique = c, n, true
		case n == bestCount:
			unique = false
		}
	}
	return best, bestCount, unique
}

// countOf returns how many times c occurs in neighbors.
func countOf(neighbors []color.Color, c color.Color) int {
	n := 0
	for _, x := range neighbors {
		if x == c {
			n++
		}
	}
	return n
}
