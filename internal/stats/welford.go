package stats

import "math"

// Welford accumulates streaming first and second moments (Welford's online
// algorithm): one value at a time, O(1) memory, no catastrophic cancellation.
// It is the aggregator behind the Monte-Carlo ensemble harness, which folds
// replica outcomes in as they complete instead of buffering every sample.
// The zero value is an empty accumulator ready for use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	// Each float64(...) around a product in this package rounds it, so no
	// architecture fuses it into a multiply-add and changes report bytes.
	w.m2 += float64(d * (x - w.mean))
}

// Mean returns the running mean, or 0 for an empty accumulator.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance (dividing by n), or 0
// with fewer than two observations.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the running population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Variance()) }

// Wilson returns the Wilson score interval for a binomial proportion: the
// confidence interval for the success probability after observing k
// successes in n trials.  Unlike the naive normal approximation it stays
// inside [0, 1] and behaves sanely at k = 0 and k = n, which is exactly the
// regime phase-transition sweeps live in (takeover probability near 0 or 1).
// z is the standard-normal quantile for the desired confidence (use WilsonZ95
// for 95%).  An empty sample (n <= 0) returns the uninformative [0, 1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n <= 0 {
		return 0, 1
	}
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	p := float64(k) / float64(n)
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	center := (p + z2/(2*nf)) / denom
	half := float64(z / denom * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)))
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// WilsonZ95 is the standard-normal 97.5% quantile, the z for a two-sided 95%
// Wilson interval.
const WilsonZ95 = 1.959963984540054
