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

// counts is a small fixed-size multiset of neighbor colors.  Torus vertices
// have exactly four neighbors, so a tiny linear-scan structure beats a map
// by a wide margin in the engine's inner loop.
type counts struct {
	colors [8]color.Color
	count  [8]int
	n      int
}

func (cs *counts) add(c color.Color) {
	for i := 0; i < cs.n; i++ {
		if cs.colors[i] == c {
			cs.count[i]++
			return
		}
	}
	if cs.n < len(cs.colors) {
		cs.colors[cs.n] = c
		cs.count[cs.n] = 1
		cs.n++
	}
}

func tally(neighbors []color.Color) counts {
	var cs counts
	for _, c := range neighbors {
		cs.add(c)
	}
	return cs
}

// max returns the color with the highest multiplicity, that multiplicity,
// and whether the maximum is attained by exactly one color.
func (cs *counts) max() (color.Color, int, bool) {
	best := color.None
	bestCount := 0
	unique := true
	for i := 0; i < cs.n; i++ {
		switch {
		case cs.count[i] > bestCount:
			best, bestCount, unique = cs.colors[i], cs.count[i], true
		case cs.count[i] == bestCount:
			unique = false
		}
	}
	return best, bestCount, unique
}

// of returns the multiplicity of c.
func (cs *counts) of(c color.Color) int {
	for i := 0; i < cs.n; i++ {
		if cs.colors[i] == c {
			return cs.count[i]
		}
	}
	return 0
}
