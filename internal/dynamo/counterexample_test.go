package dynamo

import (
	"testing"

	"repro/internal/blocks"
	"repro/internal/rules"
	"repro/internal/sim"
)

func TestBlockedCrossIsNotADynamo(t *testing.T) {
	c, err := BlockedCross(8, 8, 1, pal(5))
	if err != nil {
		t.Fatal(err)
	}
	// The planted square is a block of its color: its class has a cycle.
	if blocks.IsForest(c.Topology, c.Coloring, c.Palette.Others(1)[0]) {
		t.Fatal("BlockedCross should contain a foreign block")
	}
	v := Verify(c)
	if v.IsDynamo {
		t.Error("Figure-3 style configuration must not be a dynamo")
	}
	// The simulation must still terminate (fixed point or cycle), not hit
	// the round budget.
	if !v.Result.FixedPoint && !v.Result.Cycle {
		t.Error("blocked configuration should reach a fixed point")
	}
	// The planted square keeps its color to the very end.
	d := c.Topology.Dims()
	blocker := c.Palette.Others(1)[0]
	if v.Result.Final.AtRC(d.Rows/2, d.Cols/2) != blocker {
		t.Error("the planted block changed color")
	}
}

func TestBlockedCrossRejectsSmallTori(t *testing.T) {
	if _, err := BlockedCross(5, 5, 1, pal(5)); err == nil {
		t.Error("BlockedCross should require at least a 6x6 torus")
	}
}

func TestFrozenTilingNeverRecolors(t *testing.T) {
	c, err := FrozenTiling(8, 10, 1, pal(4))
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(c.Topology, rules.SMP{}, c.Coloring, sim.Options{Target: 1, StopWhenMonochromatic: true})
	if res.Rounds != 1 || !res.FixedPoint {
		t.Errorf("Figure-4 style configuration should freeze immediately, ran %d rounds", res.Rounds)
	}
	if !res.Final.Equal(c.Coloring) {
		t.Error("no vertex should ever change color")
	}
	if res.Monochromatic {
		t.Error("frozen tiling must not be monochromatic")
	}
	// The k-colored square is a k-block yet not a dynamo.
	if blocks.IsForest(c.Topology, c.Coloring, 1) {
		t.Error("the k-colored 2x2 square should be a k-block")
	}
	if len(c.Seed) != 4 {
		t.Errorf("seed size = %d, want 4", len(c.Seed))
	}
}

func TestFrozenTilingRejectsOddDimensions(t *testing.T) {
	if _, err := FrozenTiling(7, 8, 1, pal(4)); err == nil {
		t.Error("odd rows should be rejected")
	}
	if _, err := FrozenTiling(8, 7, 1, pal(4)); err == nil {
		t.Error("odd columns should be rejected")
	}
}

func TestStatedConditionsGap(t *testing.T) {
	// The configuration satisfies the hypotheses of Theorem 2 exactly as
	// stated in the paper, yet it is not a monotone dynamo: the seed vertex
	// next to the missing corner defects in round 1.  This documents the
	// hypothesis gap reported in EXPERIMENTS.md.
	for _, size := range [][2]int{{8, 8}, {5, 9}, {11, 6}} {
		c, err := StatedConditionsGap(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		if err := CheckTheoremConditions(c); err != nil {
			t.Fatalf("%v: the gap configuration must satisfy the stated hypotheses: %v", size, err)
		}
		v := Verify(c)
		if v.Monotone {
			t.Errorf("%v: the gap configuration should NOT be monotone", size)
		}
		// The defecting seed vertex joins the corner and the ends of the
		// first and last padding rows in a foreign block, so the
		// configuration is not a dynamo at all.
		if v.IsDynamo {
			t.Errorf("%v: the gap configuration should NOT reach the monochromatic fixed point", size)
		}
	}
	if _, err := StatedConditionsGap(9, 9, 1, pal(5)); err == nil {
		t.Error("m not congruent to 2 mod 3 should be rejected")
	}
	if _, err := StatedConditionsGap(8, 8, 1, pal(3)); err == nil {
		t.Error("too few colors should be rejected")
	}
}

func TestUndersizedSeedIsNotADynamo(t *testing.T) {
	for _, size := range [][2]int{{6, 6}, {7, 9}, {9, 7}} {
		c, err := UndersizedSeed(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatal(err)
		}
		want := LowerBound(c.Topology.Kind(), c.Topology.Dims()) - 1
		if c.SeedSize() != want {
			t.Errorf("%v: seed size %d, want %d", size, c.SeedSize(), want)
		}
		if Verify(c).IsDynamo {
			t.Errorf("%v: a seed below the Theorem 1 bound must not be a dynamo", size)
		}
	}
}
