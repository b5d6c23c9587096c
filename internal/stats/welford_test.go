package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= tol*math.Max(scale, 1)
}

// TestWelfordMatchesBatch is the property test pinning the streaming moments
// to the batch formulas: for arbitrary samples, Welford's Mean/Variance must
// agree with the two-pass mean and population variance of the full slice.
// populationVariance is the two-pass batch formula Welford must match.
func populationVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		n := int(size)
		src := rng.New(seed)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			// Mixed scales exercise the cancellation resistance.
			xs[i] = (src.Float64() - 0.5) * math.Pow(10, float64(src.Intn(6)))
			w.Add(xs[i])
		}
		if w.n != n {
			return false
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-9) && almostEqual(w.Variance(), populationVariance(xs), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceAndStd(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Variance(); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("population variance = %v, want 4", got)
	}
	if got := w.Std(); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("std = %v, want 2", got)
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.Variance() != 0 || w.Std() != 0 {
		t.Fatal("zero-value Welford is not empty")
	}
	w.Add(3.5)
	if w.n != 1 || w.Mean() != 3.5 || w.Variance() != 0 {
		t.Fatalf("single observation: n=%d mean=%v var=%v", w.n, w.Mean(), w.Variance())
	}
}

func TestWilsonKnownValues(t *testing.T) {
	// Reference values for the 95% Wilson interval (computed from the
	// closed form; cross-checked against statsmodels).
	cases := []struct {
		k, n   int
		lo, hi float64
	}{
		{0, 10, 0, 0.27753},
		{10, 10, 0.72247, 1},
		{5, 10, 0.23659, 0.76341},
		{1, 100, 0.00177, 0.05446},
		{50, 100, 0.40383, 0.59617},
	}
	for _, c := range cases {
		lo, hi := Wilson(c.k, c.n, WilsonZ95)
		if math.Abs(lo-c.lo) > 5e-5 || math.Abs(hi-c.hi) > 5e-5 {
			t.Fatalf("Wilson(%d,%d) = [%.5f, %.5f], want [%.5f, %.5f]", c.k, c.n, lo, hi, c.lo, c.hi)
		}
	}
}

// TestWilsonProperties checks the structural properties for arbitrary (k, n):
// bounds inside [0, 1], the point estimate inside the interval, and the
// interval shrinking as n grows at fixed proportion.
func TestWilsonProperties(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		lo, hi := Wilson(k, n, WilsonZ95)
		p := float64(k) / float64(n)
		if lo < 0 || hi > 1 || lo > hi {
			return false
		}
		if p < lo-1e-12 || p > hi+1e-12 {
			return false
		}
		lo4, hi4 := Wilson(4*k, 4*n, WilsonZ95)
		return hi4-lo4 <= hi-lo+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWilsonBitsPinned pins the exact bits of every 95% interval with
// 0 <= k <= n <= 64, the replica counts of the golden ensemble specs, to
// their values on an architecture with no fused multiply-add (amd64).  A
// compiler that fused a product into Wilson's sums would round differently
// and change the ensemble report bytes; the explicit float64 conversions in
// Wilson forbid that.
func TestWilsonBitsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	for n := 0; n <= 64; n++ {
		for k := 0; k <= n; k++ {
			lo, hi := Wilson(k, n, WilsonZ95)
			for _, x := range []float64{lo, hi} {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
	}
	const want = "94de90f724304d380db7994c3f2a9d1258af4ceafaa7bbb7032c1b5f6c972b43"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Wilson bits sha256 = %s, want %s", got, want)
	}
}

func TestWilsonDegenerate(t *testing.T) {
	if lo, hi := Wilson(0, 0, WilsonZ95); lo != 0 || hi != 1 {
		t.Fatalf("Wilson(0,0) = [%v, %v], want [0, 1]", lo, hi)
	}
	if lo, hi := Wilson(-3, 10, WilsonZ95); lo != 0 || hi >= 0.3 {
		t.Fatalf("Wilson clamps k < 0: got [%v, %v]", lo, hi)
	}
	if lo, hi := Wilson(15, 10, WilsonZ95); hi < 1-1e-12 || lo <= 0.7 {
		t.Fatalf("Wilson clamps k > n: got [%v, %v]", lo, hi)
	}
}
