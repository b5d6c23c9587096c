// Package rng provides a small, deterministic, allocation-free pseudo random
// number generator used throughout the repository.
//
// Experiments must be exactly reproducible across runs and machines, so the
// repository never uses the global math/rand source.  The generator is a
// SplitMix64 core (Steele, Lea, Flood: "Fast splittable pseudorandom number
// generators") which is statistically solid for simulation workloads, trivial
// to seed, and cheap enough to be used in inner loops.
//
// Hash keeps parallel and stochastic code deterministic without sharing
// mutable state across goroutines: it is a pure function of a seed and a
// coordinate tuple (round, vertex, ...).  Because it carries no state at
// all, any evaluation order — any worker count, any stepping tier, any
// checkpoint/resume boundary — produces the same draw for the same
// coordinates, which is what makes stochastic simulation runs
// bit-reproducible.
package rng

import "math"

// golden is the SplitMix64 stream increment (the odd integer closest to
// 2^64/φ).
const golden = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output finalizer: a fixed bijective 64-bit mixer
// whose output is statistically independent of small changes in the input.
// It is the shared core of Uint64 and Hash.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash derives a deterministic 64-bit value from a seed and a coordinate
// tuple — the counter-based randomness primitive behind stochastic schedules
// and noisy rules.  It is a pure function: Hash(seed, r, v) is the same on
// every machine, in every evaluation order, with no generator state to
// thread, checkpoint or lock.  Distinct tuples give statistically independent
// values; the same seed with a different arity never collides with a prefix
// (each position folds in its index).
func Hash(seed uint64, ids ...uint64) uint64 {
	p := NewPrefix(seed)
	for _, id := range ids {
		p = p.Then(id)
	}
	return p.Sum()
}

// Prefix is the fold state of Hash after a seed and a leading run of
// coordinates, so a loop over the last coordinates can hoist the shared
// part: Hash(seed, r, v, t) == NewPrefix(seed).Then(r).Then(v).Then(t).Sum().
// Folding a coordinate costs two mixes: one of the coordinate alone (its
// Key) and one of the fold.  A loop that folds the same coordinates under
// many prefixes (every vertex, every round) computes each Key once and
// folds it with ThenKey.
type Prefix struct {
	h, n uint64
}

// NewPrefix starts a fold over seed with no coordinates yet.
func NewPrefix(seed uint64) Prefix { return Prefix{h: Mix(seed + golden)} }

// Key is the mix of coordinate id that Then folds in, a function of id
// alone: p.Then(id) == p.ThenKey(Key(id)) for every prefix p.
func Key(id uint64) uint64 { return Mix(id + golden) }

// Then folds in the next coordinate.
func (p Prefix) Then(id uint64) Prefix { return p.ThenKey(Key(id)) }

// ThenKey folds in the next coordinate given its Key, at one mix.
func (p Prefix) ThenKey(key uint64) Prefix {
	p.n++
	p.h = Mix(p.h + golden*p.n + key)
	return p
}

// Sum returns the hash of the coordinates folded so far.
func (p Prefix) Sum() uint64 { return p.h }

// Stream is the family of draws p.ThenKey(key).Then(tag).Sum() of a fixed
// prefix p and trailing tag, indexed by the key alone, with every term but
// the key folded in ahead: a draw costs two mixes and two adds.
type Stream struct {
	head, tail uint64
}

// Stream returns p's draws over one more coordinate, given as its Key, and
// then tag.
func (p Prefix) Stream(tag uint64) Stream {
	return Stream{head: p.h + golden*(p.n+1), tail: golden*(p.n+2) + Key(tag)}
}

// At returns p.ThenKey(key).Then(tag).Sum() for the p and tag of s.
func (s Stream) At(key uint64) uint64 { return Mix(Mix(s.head+key) + s.tail) }

// Unit maps a 64-bit hash to a uniform float64 in [0, 1), the stateless twin
// of Source.Float64 (same 53-bit construction).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// UnitThreshold returns ⌈p·2⁵³⌉ for p in [0, 1] (exact in float64), the
// threshold t of UnitBelow.
func UnitThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// UnitBelow is Unit(h) < p in exact integer form, branch-free: 1 when h>>11
// < t = UnitThreshold(p), else 0.  h>>11 and t lie below 2⁶³, so their
// difference borrows into bit 63 exactly when h>>11 < t.
func UnitBelow(h, t uint64) uint64 { return (h>>11 - t) >> 63 }

// Source is a deterministic SplitMix64 pseudo random number generator.
// The zero value is a valid generator seeded with 0; prefer New to make the
// seed explicit.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value.  Two Sources built with
// the same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += golden
	return Mix(s.state)
}

// Intn returns a uniform integer in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method keeps the distribution exact
	// without a modulo bias.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	mid := t & mask
	hi = t >> 32
	t = a0*b1 + mid
	lo |= (t & mask) << 32
	hi += t >> 32
	hi += a1 * b1
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher–Yates).  It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle called with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
