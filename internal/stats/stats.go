// Package stats provides the descriptive statistics the experiment harness
// and the Monte-Carlo ensemble report use: the batch mean, a streaming
// mean/variance accumulator (Welford) and the Wilson score interval.
package stats

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
