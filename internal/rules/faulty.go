package rules

import (
	"math"

	"repro/internal/color"
	"repro/internal/rng"
)

// Fault-draw stream tags: the final Hash coordinate that separates the
// "did this vertex misfire?" draw from the "which color did it take?" draw,
// so the two are statistically independent for the same (round, vertex).
const (
	faultTagDraw  = 1
	faultTagColor = 2
)

// FaultRound is one round of the ε-fault stream: with probability eps the
// application at vertex v misfires and takes a uniformly random color from
// the palette {1..k}.  The draws are counter-based — pure functions of
// (seed, round, vertex) via rng.Hash — so the same coordinates misfire
// identically under any worker count, kernel tier or checkpoint/resume
// boundary.
//
// It is the single definition of the noise model: the engine's scalar
// stochastic sweeps and the bitplane tier's word-parallel fault masks both
// draw through it, so the paths are identical by construction.  A vertex
// is named by its key, rng.Key(v), which callers compute once per vertex
// (see sim.Engine's vertex keys), and building one FaultRound per round
// folds the (seed, round) prefix and the stream tags in ahead, so a draw
// costs two mixes of the key.  rng.Unit(h) < eps is evaluated in its exact
// integer form, rng.UnitBelow.
type FaultRound struct {
	// misfire and pick are the round's "did it misfire?" and "which
	// color?" streams over the vertex keys.
	misfire, pick rng.Stream
	// thresh is ⌈eps·2⁵³⌉ clamped to 2⁵³; zero means no application faults.
	thresh uint64
	k      uint64
}

// NewFaultRound returns the fault draws of the given round.  eps ≤ 0 (or
// NaN) or k < 1 yields a round in which nothing faults.
func NewFaultRound(seed, round uint64, eps float64, k int) FaultRound {
	if !(eps > 0) || k < 1 {
		return FaultRound{}
	}
	pre := rng.NewPrefix(seed).Then(round)
	return FaultRound{
		misfire: pre.Stream(faultTagDraw),
		pick:    pre.Stream(faultTagColor),
		thresh:  rng.UnitThreshold(math.Min(eps, 1)),
		k:       uint64(k),
	}
}

// Fault reports whether the application at the vertex with the given key
// misfires this round and, when it does, the color it takes.
func (f *FaultRound) Fault(key uint64) (color.Color, bool) {
	if f.Mask([]uint64{key}) == 0 {
		return color.None, false
	}
	return f.Color(key), true
}

// Mask returns the misfire mask of the vertices (at most 64) whose keys
// are given: bit i is set when the vertex of keys[i] misfires this round.
// It is the one definition of the misfire draw: Fault is Mask over a
// single vertex, and the bitplane tier calls it once per plane word.
func (f *FaultRound) Mask(keys []uint64) uint64 {
	var m uint64
	for i := len(keys) - 1; i >= 0; i-- {
		m = m<<1 | rng.UnitBelow(f.misfire.At(keys[i]), f.thresh)
	}
	return m
}

// Color returns the color the vertex with the given key takes when it
// misfires this round.
func (f *FaultRound) Color(key uint64) color.Color {
	return color.Color(1 + f.pick.At(key)%f.k)
}
