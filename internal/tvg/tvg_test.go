package tvg

import (
	"testing"

	"repro/internal/blocks"
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/sim"
)

func meshMin(t *testing.T, m, n int) *dynamo.Construction {
	t.Helper()
	c, err := dynamo.MeshMinimum(m, n, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tvRun drives a time-varying run through the simulation engine — the
// execution path that replaced the former package-local loop — with the old
// loop's semantics: stop at the monochromatic configuration, budget
// 6·n + 32 when none is given.
func tvRun(topo grid.Topology, avail Availability, rule rules.Rule, initial *color.Coloring, maxRounds int) *sim.Result {
	if maxRounds <= 0 {
		maxRounds = 6*topo.Dims().N() + 32
	}
	return sim.NewEngine(topo, rule).Run(initial, sim.Options{
		TimeVarying:           avail,
		MaxRounds:             maxRounds,
		StopWhenMonochromatic: true,
	})
}

func TestAlwaysOnMatchesStaticEngine(t *testing.T) {
	c := meshMin(t, 7, 7)
	static := dynamo.Verify(c)
	tv := tvRun(c.Topology, AlwaysOn{}, rules.SMP{}, c.Coloring, 0)
	if !tv.Monochromatic || tv.FinalColor != 1 {
		t.Fatal("AlwaysOn run should behave like the static simulation")
	}
	if tv.Rounds != static.Rounds {
		t.Errorf("rounds %d vs static %d", tv.Rounds, static.Rounds)
	}
	if !tv.Final.Equal(static.Result.Final) {
		t.Error("final configurations differ")
	}
}

func TestStaticDeclarations(t *testing.T) {
	cases := []struct {
		name  string
		model interface{ Static() bool }
		want  bool
	}{
		{"always-on", AlwaysOn{}, true},
		{"bernoulli-p1", Bernoulli{P: 1}, true},
		{"bernoulli-p0.9", Bernoulli{P: 0.9}, false},
		{"periodic-zero", Periodic{}, true},
		{"periodic-off0", Periodic{Period: 4, Off: 0}, true},
		{"periodic-duty", Periodic{Period: 4, Off: 2}, false},
		{"nodefaults-up", NodeFaults{P: 1}, true},
		{"nodefaults-up-static-links", NodeFaults{P: 1, Links: AlwaysOn{}}, true},
		{"nodefaults-churn", NodeFaults{P: 0.9}, false},
		{"nodefaults-churny-links", NodeFaults{P: 1, Links: Bernoulli{P: 0.5}}, false},
	}
	for _, tc := range cases {
		if got := tc.model.Static(); got != tc.want {
			t.Errorf("%s: Static() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBernoulliFullAvailabilityIsAlwaysOn(t *testing.T) {
	b := Bernoulli{P: 1, Seed: 1}
	if !b.Available(3, 1, 2) {
		t.Error("P=1 must always be available")
	}
	z := Bernoulli{P: 0, Seed: 1}
	if z.Available(3, 1, 2) {
		t.Error("P=0 must never be available")
	}
}

func TestBernoulliDeterministicAndSymmetric(t *testing.T) {
	b := Bernoulli{P: 0.5, Seed: 42}
	for round := 1; round < 20; round++ {
		for u := 0; u < 5; u++ {
			for v := u + 1; v < 5; v++ {
				first := b.Available(round, u, v)
				if b.Available(round, u, v) != first {
					t.Fatal("availability must be deterministic")
				}
			}
		}
	}
	// Roughly half the links should be up.
	up := 0
	for i := 0; i < 1000; i++ {
		if b.Available(i, 1, 2) {
			up++
		}
	}
	if up < 400 || up > 600 {
		t.Errorf("availability rate %d/1000, expected around 500", up)
	}
}

func TestPeriodicAvailability(t *testing.T) {
	p := Periodic{Period: 4, Off: 2}
	// Rounds 4,5 (mod 4 = 0,1) are down; rounds 6,7 are up.
	if p.Available(4, 0, 1) || p.Available(5, 0, 1) {
		t.Error("rounds in the off window should be down")
	}
	if !p.Available(6, 0, 1) || !p.Available(7, 0, 1) {
		t.Error("rounds in the on window should be up")
	}
	if !(Periodic{}).Available(3, 0, 1) {
		t.Error("zero period should mean always on")
	}
}

func TestChurnOutcomeIsMonochromaticOrBlocked(t *testing.T) {
	// Under link churn monotonicity can break: a seed vertex whose k-links
	// happen to be down can be persuaded away, and the system may be
	// absorbed into a stable non-monochromatic configuration containing a
	// foreign block.  The invariant we can assert is the disjunction: the
	// run either reaches the k-monochromatic configuration or ends with at
	// least one block of another color.  (E14 reports the success rate as a
	// function of the availability probability.)
	c := meshMin(t, 9, 9)
	static := dynamo.Verify(c)
	if !static.IsDynamo {
		t.Fatal("static configuration must be a dynamo")
	}
	for _, seed := range []uint64{7, 8, 9} {
		tv := tvRun(c.Topology, Bernoulli{P: 0.9, Seed: seed}, rules.SMP{}, c.Coloring, 2000)
		if tv.Monochromatic && tv.FinalColor == 1 {
			if tv.Rounds < static.Rounds {
				t.Errorf("seed %d: churn should not speed convergence up (%d vs %d)", seed, tv.Rounds, static.Rounds)
			}
			continue
		}
		blocked := false
		for other := color.Color(2); int(other) <= c.Palette.K; other++ {
			// A color class holds a block exactly when it has a cycle.
			if !blocks.IsForest(c.Topology, tv.Final, other) {
				blocked = true
				break
			}
		}
		if !blocked {
			t.Errorf("seed %d: non-monochromatic outcome without a foreign block:\n%s", seed, tv.Final.String())
		}
	}
}

func TestDynamoSurvivesLightChurn(t *testing.T) {
	// With 99% availability and a generous budget the 7x7 minimum dynamo
	// still takes over for these seeds.
	c := meshMin(t, 7, 7)
	wins := 0
	for _, seed := range []uint64{1, 2, 3, 4, 5} {
		tv := tvRun(c.Topology, Bernoulli{P: 0.99, Seed: seed}, rules.SMP{}, c.Coloring, 5000)
		if tv.Monochromatic && tv.FinalColor == 1 {
			wins++
		}
	}
	if wins < 3 {
		t.Errorf("only %d/5 light-churn runs converged; expected most of them", wins)
	}
}

func TestNoAvailabilityMeansNoProgress(t *testing.T) {
	c := meshMin(t, 6, 6)
	tv := tvRun(c.Topology, Bernoulli{P: 0, Seed: 1}, rules.SMP{}, c.Coloring, 50)
	if tv.Monochromatic {
		t.Error("with all links down nothing can spread")
	}
	if !tv.Final.Equal(c.Coloring) {
		t.Error("no vertex should have changed")
	}
}

func TestPeriodicDutyCycleSlowsConvergence(t *testing.T) {
	c := meshMin(t, 7, 7)
	static := dynamo.Verify(c)
	tv := tvRun(c.Topology, Periodic{Period: 2, Off: 1}, rules.SMP{}, c.Coloring, 500)
	if !tv.Monochromatic {
		t.Fatal("a 50% duty cycle should still converge")
	}
	if tv.Rounds <= static.Rounds {
		t.Errorf("duty cycling should slow convergence (%d vs %d)", tv.Rounds, static.Rounds)
	}
}

func TestNodeFaultsAvailability(t *testing.T) {
	nf := NodeFaults{Links: AlwaysOn{}, P: 1, Seed: 1}
	if !nf.Available(3, 1, 2) {
		t.Error("P=1 should keep every node up")
	}
	down := NodeFaults{Links: AlwaysOn{}, P: 0, Seed: 1}
	if down.Available(3, 1, 2) {
		t.Error("P=0 should take every node down")
	}
	// Determinism and symmetry in the endpoints' node states.
	nf = NodeFaults{P: 0.5, Seed: 9}
	for round := 1; round < 10; round++ {
		if nf.Available(round, 2, 5) != nf.Available(round, 2, 5) {
			t.Fatal("node availability must be deterministic")
		}
	}
	// A nil Links model defaults to AlwaysOn.
	if got := (NodeFaults{P: 1}).Available(1, 0, 1); !got {
		t.Error("nil link model should default to always-on")
	}
	// Composition with a link model: if the link model says no, the answer
	// is no even with all nodes up.
	comp := NodeFaults{Links: Bernoulli{P: 0, Seed: 1}, P: 1}
	if comp.Available(1, 0, 1) {
		t.Error("link model must still apply")
	}
}

func TestNodeChurnOutcome(t *testing.T) {
	// Same invariant as the link-churn test: under node churn the run either
	// reaches the monochromatic configuration or is absorbed with a foreign
	// block present.
	c := meshMin(t, 8, 8)
	for _, p := range []float64{0.95, 0.85} {
		res := tvRun(c.Topology, NodeFaults{P: p, Seed: 21}, rules.SMP{}, c.Coloring, 3000)
		if res.Monochromatic && res.FinalColor == 1 {
			continue
		}
		blocked := false
		for other := color.Color(2); int(other) <= c.Palette.K; other++ {
			if !blocks.IsForest(c.Topology, res.Final, other) {
				blocked = true
				break
			}
		}
		if !blocked {
			t.Errorf("p=%v: non-monochromatic outcome without a foreign block", p)
		}
	}
}

func TestRunDoesNotModifyInitial(t *testing.T) {
	c := meshMin(t, 6, 6)
	snapshot := c.Coloring.Clone()
	tvRun(c.Topology, Bernoulli{P: 0.5, Seed: 3}, rules.SMP{}, c.Coloring, 100)
	if !c.Coloring.Equal(snapshot) {
		t.Error("a run must not modify the initial coloring")
	}
}
