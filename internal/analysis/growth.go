package analysis

import (
	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/sim"
)

// GrowthCurve runs the SMP-Protocol on the initial coloring and returns the
// number of target-colored vertices after every round, starting with the
// seed size at index 0.  For a monotone dynamo the curve is non-decreasing
// and ends at m·n.
func GrowthCurve(topo grid.Topology, initial *color.Coloring, target color.Color) []int {
	curve := []int{initial.Count(target)}
	sim.NewEngine(topo, rules.SMP{}).Run(initial, sim.Options{
		Target:                target,
		StopWhenMonochromatic: true,
		DetectCycles:          true,
		Observers: []sim.Observer{sim.RoundFunc(func(round int, c *color.Coloring) {
			curve = append(curve, c.Count(target))
		})},
	})
	return curve
}

// Increments converts a growth curve into per-round increments.
func Increments(curve []int) []int {
	if len(curve) < 2 {
		return nil
	}
	out := make([]int, len(curve)-1)
	for i := 1; i < len(curve); i++ {
		out[i-1] = curve[i] - curve[i-1]
	}
	return out
}

// PeakIncrement returns the largest per-round increment of the curve.
func PeakIncrement(curve []int) int {
	peak := 0
	for _, v := range Increments(curve) {
		if v > peak {
			peak = v
		}
	}
	return peak
}
