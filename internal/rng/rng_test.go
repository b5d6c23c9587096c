package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d identical values out of 100", same)
	}
}

func TestSeedResets(t *testing.T) {
	s := New(7)
	first := make([]uint64, 10)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Seed(7)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after reseed, value %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIntnCoversAllValues(t *testing.T) {
	s := New(11)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		seen[s.Intn(5)] = true
	}
	for v := 0; v < 5; v++ {
		if !seen[v] {
			t.Fatalf("value %d never produced by Intn(5)", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	for _, n := range []int{0, 1, 2, 5, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermProperty(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size % 64)
		p := New(seed).Perm(n)
		sum := 0
		for _, v := range p {
			sum += v
		}
		return sum == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPick(t *testing.T) {
	s := New(1)
	xs := []string{"a", "b", "c"}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		counts[Pick(s, xs)]++
	}
	for _, x := range xs {
		if counts[x] == 0 {
			t.Fatalf("Pick never returned %q", x)
		}
	}
}

func TestPickPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty Pick")
		}
	}()
	Pick(New(1), []int{})
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	child := parent.Split()
	// The child stream should not be a shifted copy of the parent stream.
	equal := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("parent and child streams overlap in %d/100 positions", equal)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	ca, cb := a.Split(), b.Split()
	for i := 0; i < 1000; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("split children of identical parents diverged at step %d", i)
		}
	}
	// Splitting advances the parent deterministically too.
	if a.Uint64() != b.Uint64() {
		t.Fatal("parents diverged after splitting")
	}
}

func TestSplitChildHasOwnGamma(t *testing.T) {
	child := New(99).Split()
	if child.gamma == 0 || child.gamma == golden {
		t.Fatalf("split child gamma = %#x, want a fresh odd increment", child.gamma)
	}
	if child.gamma&1 == 0 {
		t.Fatalf("split child gamma %#x is even; SplitMix64 increments must be odd", child.gamma)
	}
}

// TestSplitStatisticalIndependence checks that sibling streams decorrelate:
// across many children of one parent, the XOR of paired outputs should look
// uniform (balanced bits), and no two siblings may share a prefix.
func TestSplitStatisticalIndependence(t *testing.T) {
	parent := New(2024)
	const children = 64
	const draws = 256
	streams := make([][]uint64, children)
	for c := range streams {
		src := parent.Split()
		streams[c] = make([]uint64, draws)
		for i := range streams[c] {
			streams[c][i] = src.Uint64()
		}
	}
	// No two siblings share their first 4 outputs.
	seen := map[[4]uint64]int{}
	for c, st := range streams {
		key := [4]uint64{st[0], st[1], st[2], st[3]}
		if prev, dup := seen[key]; dup {
			t.Fatalf("children %d and %d produced identical stream prefixes", prev, c)
		}
		seen[key] = c
	}
	// Pairwise XOR of adjacent siblings is bit-balanced: each of the 64 bit
	// positions should flip roughly half the time.
	var bitOnes [64]int
	total := 0
	for c := 0; c+1 < children; c += 2 {
		for i := 0; i < draws; i++ {
			x := streams[c][i] ^ streams[c+1][i]
			total++
			for b := 0; b < 64; b++ {
				bitOnes[b] += int(x >> b & 1)
			}
		}
	}
	for b, ones := range bitOnes {
		frac := float64(ones) / float64(total)
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("bit %d of sibling XOR stream is %.3f ones, want ~0.5 (streams correlated)", b, frac)
		}
	}
}

func TestHashPureFunction(t *testing.T) {
	if Hash(7, 1, 2) != Hash(7, 1, 2) {
		t.Fatal("Hash is not deterministic")
	}
	if Hash(7, 1, 2) == Hash(7, 2, 1) {
		t.Fatal("Hash ignores id order")
	}
	if Hash(7, 1, 2) == Hash(8, 1, 2) {
		t.Fatal("Hash ignores the seed")
	}
	if Hash(7, 1) == Hash(7, 1, 0) {
		t.Fatal("Hash collides across arities for a zero-extended tuple")
	}
}

// TestHashPrefixMatchesFold pins Hash and its hoisted form to the original
// one-loop fold, so every stochastic stream stays the same draw for draw.
func TestHashPrefixMatchesFold(t *testing.T) {
	fold := func(seed uint64, ids ...uint64) uint64 {
		h := Mix(seed + golden)
		for i, id := range ids {
			h = Mix(h + golden*uint64(i+1) + Mix(id+golden))
		}
		return h
	}
	for seed := uint64(0); seed < 4; seed++ {
		if got, want := Hash(seed), fold(seed); got != want {
			t.Fatalf("Hash(%d) = %#x, want %#x", seed, got, want)
		}
		for r := uint64(0); r < 8; r++ {
			p := NewPrefix(seed).Then(r)
			for v := uint64(0); v < 64; v++ {
				want := fold(seed, r, v, 1)
				if got := Hash(seed, r, v, 1); got != want {
					t.Fatalf("Hash(%d,%d,%d,1) = %#x, want %#x", seed, r, v, got, want)
				}
				if got := p.Then(v).Then(1).Sum(); got != want {
					t.Fatalf("prefix fold of (%d,%d,%d,1) = %#x, want %#x", seed, r, v, got, want)
				}
			}
		}
	}
}

// TestHashBitBalance drives the counter-based form over a lattice of
// (round, vertex) coordinates — exactly the schedule-mask workload — and
// checks every output bit is balanced.
func TestHashBitBalance(t *testing.T) {
	var bitOnes [64]int
	total := 0
	for round := uint64(1); round <= 64; round++ {
		for v := uint64(0); v < 256; v++ {
			h := Hash(42, round, v)
			total++
			for b := 0; b < 64; b++ {
				bitOnes[b] += int(h >> b & 1)
			}
		}
	}
	for b, ones := range bitOnes {
		frac := float64(ones) / float64(total)
		if frac < 0.47 || frac > 0.53 {
			t.Fatalf("bit %d of Hash over a coordinate lattice is %.3f ones, want ~0.5", b, frac)
		}
	}
}

func TestUnitRangeAndMean(t *testing.T) {
	sum := 0.0
	const n = 10000
	for i := 0; i < n; i++ {
		u := Unit(Hash(5, uint64(i)))
		if u < 0 || u >= 1 {
			t.Fatalf("Unit = %v out of [0,1)", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Unit mean = %v, want ~0.5", mean)
	}
}

func TestMixMatchesUint64(t *testing.T) {
	// Uint64 must remain the golden-increment SplitMix64 stream: pinned so
	// every seeded experiment in the repository stays bit-reproducible.
	s := New(31)
	if got, want := s.Uint64(), Mix(31+golden); got != want {
		t.Fatalf("Uint64 = %#x, want Mix(seed+golden) = %#x", got, want)
	}
}

func TestBoolBalance(t *testing.T) {
	s := New(8)
	trues := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if s.Bool() {
			trues++
		}
	}
	if trues < n*45/100 || trues > n*55/100 {
		t.Fatalf("Bool returned true %d/%d times, expected ~50%%", trues, n)
	}
}

func TestUint32NotConstant(t *testing.T) {
	s := New(4)
	first := s.Uint32()
	for i := 0; i < 10; i++ {
		if s.Uint32() != first {
			return
		}
	}
	t.Fatal("Uint32 returned a constant stream")
}

func TestZeroValueUsable(t *testing.T) {
	var s Source
	if s.Uint64() == s.Uint64() {
		t.Fatal("zero-value Source produced identical consecutive values")
	}
}

func TestMul128KnownValues(t *testing.T) {
	cases := []struct {
		a, b, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul128(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Fatalf("mul128(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}
