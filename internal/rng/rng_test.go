package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// TestNewStreamsPinned pins a sha256 over the first 256 outputs of New for
// a few seeds, so every seeded experiment in the repository keeps its
// stream bit for bit.
func TestNewStreamsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for _, seed := range []uint64{0, 1, 42, golden, math.MaxUint64} {
		s := New(seed)
		for i := 0; i < 256; i++ {
			binary.LittleEndian.PutUint64(buf[:], s.Uint64())
			h.Write(buf[:])
		}
	}
	const want = "5d118bdba135214b14c7796a4495ebf8cb80c360a192cf26f86d1c0e02dd91b0"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("New stream sha256 = %s, want %s", got, want)
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
