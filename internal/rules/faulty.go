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
// draw through it, so the paths are identical by construction.  Building
// one per round hoists the (seed, round) prefix of the hash out of the
// per-vertex loop, and rng.Unit(h) < eps is evaluated in its exact integer
// form h>>11 < ⌈eps·2⁵³⌉ (Unit(h) is (h>>11)/2⁵³, and both the scaling by
// 2⁵³ and the ceiling are exact in float64).
type FaultRound struct {
	prefix rng.Prefix
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
	return FaultRound{
		prefix: rng.NewPrefix(seed).Then(round),
		thresh: uint64(math.Ceil(math.Min(eps, 1) * (1 << 53))),
		k:      uint64(k),
	}
}

// Fault reports whether the application at vertex v misfires this round
// and, when it does, the color it takes.
func (f *FaultRound) Fault(v uint64) (color.Color, bool) {
	if f.Mask(v, 1) == 0 {
		return color.None, false
	}
	return f.Color(v), true
}

// Mask returns the misfire mask of the lanes (at most 64) consecutive
// vertices starting at base: bit i is set when vertex base+i misfires this
// round.  It is the one definition of the misfire draw: Fault is Mask over
// a single vertex, and the bitplane tier calls it once per plane word.
func (f *FaultRound) Mask(base uint64, lanes int) uint64 {
	var m uint64
	for i := 0; i < lanes; i++ {
		h := f.prefix.Then(base + uint64(i)).Then(faultTagDraw).Sum()
		// h>>11 and thresh are both below 2⁶³, so the difference borrows
		// into bit 63 exactly when h>>11 < thresh.
		m |= (h>>11 - f.thresh) >> 63 << i
	}
	return m
}

// Color returns the color vertex v takes when it misfires this round.
func (f *FaultRound) Color(v uint64) color.Color {
	return color.Color(1 + f.prefix.Then(v).Then(faultTagColor).Sum()%f.k)
}
