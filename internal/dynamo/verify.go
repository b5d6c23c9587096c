package dynamo

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Verification is the simulation-backed judgement about a configuration.
type Verification struct {
	// IsDynamo reports that the configuration reaches the k-monochromatic
	// fixed point within the round budget (Definition 2).
	IsDynamo bool
	// Monotone reports that the k-colored set never lost a vertex
	// (Definition 3).  Only meaningful when IsDynamo checks were run with a
	// target.
	Monotone bool
	// Rounds is the number of rounds the simulation ran.
	Rounds int
	// SeedSize is the number of initially k-colored vertices.
	SeedSize int
	// Result carries the full simulation trace.
	Result *sim.Result
}

// Verify runs the SMP-Protocol on the configuration and reports whether it
// is a (monotone) dynamo for its target color.
func Verify(c *Construction) Verification {
	return VerifyColoring(c.Topology, c.Coloring, c.Target)
}

// VerifyColoring runs the SMP-Protocol on an arbitrary coloring and reports
// whether the k-colored set is a (monotone) dynamo.
func VerifyColoring(topo grid.Topology, initial *color.Coloring, k color.Color) Verification {
	return VerifyUnderRule(topo, initial, k, rules.SMP{})
}

// VerifyUnderRule is VerifyColoring with an explicit rule, used by the
// rule-comparison experiments.  It builds an engine per call; loops over one
// topology hold an engine and call VerifyWith.
func VerifyUnderRule(topo grid.Topology, initial *color.Coloring, k color.Color, rule rules.Rule) Verification {
	return VerifyWith(sim.NewEngine(topo, rule), initial, k)
}

// VerifyWith runs the engine's rule on an arbitrary coloring and reports
// whether the k-colored set is a (monotone) dynamo.
func VerifyWith(eng *sim.Engine, initial *color.Coloring, k color.Color) Verification {
	res := eng.Run(initial, sim.Options{
		Target:                k,
		StopWhenMonochromatic: true,
		DetectCycles:          true,
	})
	return Verification{
		IsDynamo: res.Monochromatic && res.FinalColor == k,
		Monotone: res.MonotoneTarget,
		Rounds:   res.Rounds,
		SeedSize: initial.Count(k),
		Result:   res,
	}
}

// checkConstruction validates that a completed configuration satisfies the
// tight-construction hypotheses for target color k.
func checkConstruction(topo grid.Topology, full *color.Coloring, k color.Color) error {
	if err := full.Validate(color.MustPalette(int(full.MaxColor()))); err != nil {
		return err
	}
	return blocks.CheckTightPadding(topo, full, k)
}

// CheckTheoremConditions verifies that a Construction satisfies the
// tight-padding hypotheses of Theorems 2, 4 and 6 together with the
// necessary conditions that apply to its topology:
//
//   - every non-target color class is a forest and no non-target vertex
//     sees the same "other" color twice (the theorems' stated hypotheses);
//   - the complement of the seed contains no non-k-block (Lemma 2);
//   - on the toroidal mesh, the seed's bounding rectangle spans at least
//     (m-1) × (n-1) (Lemma 1 / Theorem 1).
//
// Note that the strict "union of k-blocks" reading of Lemma 2 is not
// enforced: the paper's own Theorem 2 seed (a row with one vertex removed)
// violates it at the removed corner, so that condition is reported by the
// experiments rather than treated as a hard requirement (see EXPERIMENTS.md).
func CheckTheoremConditions(c *Construction) error {
	if err := blocks.CheckTightPadding(c.Topology, c.Coloring, c.Target); err != nil {
		return fmt.Errorf("dynamo: padding conditions violated: %w", err)
	}
	if blocks.HasNonKBlock(c.Topology, c.Coloring, c.Target) {
		return fmt.Errorf("dynamo: the complement of the seed contains a non-k-block (violates Lemma 2)")
	}
	if c.Topology.Kind() == grid.KindToroidalMesh {
		d := c.Topology.Dims()
		rows, cols := c.Coloring.BoundingRectangle(c.Target)
		if rows < d.Rows-1 || cols < d.Cols-1 {
			return fmt.Errorf("dynamo: seed bounding rectangle %dx%d is smaller than (m-1)x(n-1) (violates Lemma 1)", rows, cols)
		}
	}
	if got, want := c.SeedSize(), c.Coloring.Count(c.Target); got != want {
		return fmt.Errorf("dynamo: seed list has %d vertices but coloring has %d target-colored vertices", got, want)
	}
	return nil
}

// RandomSeedColoring places size k-colored vertices uniformly at random and
// pads the rest with random non-k colors.  It is the negative control of the
// lower-bound experiments: random seeds below the lower bound essentially
// never form dynamos.
func RandomSeedColoring(topo grid.Topology, size int, k color.Color, p color.Palette, next func(n int) int) *color.Coloring {
	d := topo.Dims()
	c := color.NewColoring(d, color.None)
	perm := make([]int, d.N())
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := next(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	if size > len(perm) {
		size = len(perm)
	}
	for _, v := range perm[:size] {
		c.Set(v, k)
	}
	others := p.Others(k)
	for v := 0; v < d.N(); v++ {
		if c.At(v) == color.None {
			c.Set(v, others[next(len(others))])
		}
	}
	return c
}
