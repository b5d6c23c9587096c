// Package stats provides the small set of descriptive statistics used by the
// experiment harness: means, standard deviations, extrema, quantiles and
// compact textual summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 if len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += float64(d * d)
	}
	return sum / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics.  It returns 0 for an empty slice
// and clamps q into [0, 1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := float64(q * float64(len(sorted)-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Summary is a compact description of a sample.
type Summary struct {
	N      int
	Mean   float64
	Std    float64
	Min    float64
	Median float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Std:    Std(xs),
		Min:    Min(xs),
		Median: Median(xs),
		Max:    Max(xs),
	}
}

// String renders the summary as a single human-readable line.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f std=%.3f min=%.3f median=%.3f max=%.3f",
		s.N, s.Mean, s.Std, s.Min, s.Median, s.Max)
}

// Ints converts an integer sample to float64 for use with the other helpers.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Histogram counts xs into nbins equal-width bins spanning [min, max].
// Values exactly equal to max land in the last bin.  It returns the bin
// counts and the bin width; an empty sample or nbins <= 0 yields nil.
func Histogram(xs []float64, nbins int) (counts []int, width float64) {
	if len(xs) == 0 || nbins <= 0 {
		return nil, 0
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		counts = make([]int, nbins)
		counts[0] = len(xs)
		return counts, 0
	}
	width = (hi - lo) / float64(nbins)
	counts = make([]int, nbins)
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return counts, width
}

// GeoMean returns the geometric mean of strictly positive values; any
// non-positive value makes the result 0.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
