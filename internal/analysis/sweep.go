package analysis

import (
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/grid"
)

// Point is one parameter combination of a sweep.
type Point struct {
	// Kind is the torus topology.
	Kind grid.Kind
	// M, N are the torus dimensions.
	M, N int
	// Colors is the palette size |C|.
	Colors int
}

// Record is the outcome of running a tight construction and its
// verification at one sweep point.
type Record struct {
	Point Point
	// Construction is the construction name, or "error: …" when it could
	// not be built.
	Construction string
	// SeedSize is |Sk|.
	SeedSize int
	// LowerBound is the paper's lower bound for the topology and size.
	LowerBound int
	// ConditionsOK reports whether the tight-padding hypotheses hold.
	ConditionsOK bool
	// IsDynamo and Monotone are the simulation-backed judgements.
	IsDynamo bool
	Monotone bool
	// Rounds is the measured convergence time; Predicted is the paper
	// formula (Theorem 7 or 8).
	Rounds    int
	Predicted int
	// Err holds the construction error, if any.
	Err error
}

// RunPoint builds the minimum construction for the point and verifies it.
func RunPoint(p Point) Record {
	rec := Record{
		Point:      p,
		LowerBound: dynamo.LowerBound(p.Kind, grid.MustDims(p.M, p.N)),
		Predicted:  dynamo.PredictedRounds(p.Kind, grid.MustDims(p.M, p.N)),
	}
	c, err := dynamo.Minimum(p.Kind, p.M, p.N, 1, color.MustPalette(p.Colors))
	if err != nil {
		rec.Err = err
		rec.Construction = "error"
		return rec
	}
	rec.Construction = c.Name
	rec.SeedSize = c.SeedSize()
	rec.ConditionsOK = dynamo.CheckTheoremConditions(c) == nil
	v := dynamo.Verify(c)
	rec.IsDynamo = v.IsDynamo
	rec.Monotone = v.Monotone
	rec.Rounds = v.Rounds
	return rec
}
