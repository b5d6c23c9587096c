package dynmon_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/dynmon"
	"repro/internal/graphs"
	"repro/internal/rng"
	"repro/internal/rules"
)

func TestGraphSystemDefaultsToGeneralizedSMP(t *testing.T) {
	sys, err := dynmon.New(dynmon.BarabasiAlbert(200, 2, 7), dynmon.Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Rule().Name() != "generalized-smp" {
		t.Fatalf("graph default rule = %q, want generalized-smp", sys.Rule().Name())
	}
	if sys.Graph() == nil || sys.Topology() != nil {
		t.Fatal("graph system must expose the graph and a nil topology")
	}
	if sys.N() != 200 {
		t.Fatalf("N = %d, want 200", sys.N())
	}
	// Explicit rules are respected.
	thr, err := dynmon.New(dynmon.BarabasiAlbert(100, 2, 7), dynmon.Colors(2), dynmon.WithRule("threshold"))
	if err != nil {
		t.Fatal(err)
	}
	if thr.Rule().Name() != "threshold" {
		t.Fatalf("explicit rule = %q, want threshold", thr.Rule().Name())
	}
}

func TestGraphSystemRunMatchesInternalEngine(t *testing.T) {
	g, err := dynmon.NewBarabasiAlbert(300, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dynmon.New(dynmon.Graph(g), dynmon.Colors(2), dynmon.WithRule("threshold"))
	if err != nil {
		t.Fatal(err)
	}
	seed := sys.SeedTopByDegree(8, 1, 2)
	res, err := sys.Run(context.Background(), seed, dynmon.MaxRounds(600))
	if err != nil {
		t.Fatal(err)
	}
	want := graphs.Run(g, rules.Threshold{Target: 1, Theta: 2}, seed, 1, 600)
	if res.Rounds != want.Rounds || !res.Final.Equal(want.Final) {
		t.Fatal("public graph run diverged from the internal engine path")
	}
	if res.Final.Count(1) <= 8 {
		t.Fatalf("hub cascade should spread beyond the seed, activated %d", res.Final.Count(1))
	}
}

func TestGraphSystemConstructors(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  dynmon.Option
		n    int
	}{
		{"watts-strogatz", dynmon.WattsStrogatz(120, 4, 0.1, 3), 120},
		{"erdos-renyi", dynmon.ErdosRenyi(80, 0.1, 5), 80},
	} {
		sys, err := dynmon.New(tc.opt, dynmon.Colors(3))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sys.N() != tc.n {
			t.Fatalf("%s: N = %d, want %d", tc.name, sys.N(), tc.n)
		}
		res, err := sys.Run(context.Background(), sys.RandomColoring(1))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Rounds == 0 {
			t.Fatalf("%s: empty run", tc.name)
		}
	}
	// Invalid parameters surface as construction errors.
	if _, err := dynmon.New(dynmon.BarabasiAlbert(2, 5, 1)); err == nil {
		t.Fatal("invalid Barabási–Albert parameters must error")
	}
	if _, err := dynmon.New(dynmon.Graph(nil)); err == nil {
		t.Fatal("nil graph must error")
	}
}

func TestGraphSystemTorusOnlyHelpers(t *testing.T) {
	sys, err := dynmon.New(dynmon.BarabasiAlbert(60, 2, 1), dynmon.Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.MinimumDynamo(1); err == nil {
		t.Fatal("MinimumDynamo must refuse graph systems")
	}
	if sys.LowerBound() != 0 || sys.PredictedRounds() != 0 {
		t.Fatal("torus-only bounds should degrade to 0 on graph systems")
	}
}

func TestGraphSystemTargetSetHelpers(t *testing.T) {
	g, err := dynmon.NewBarabasiAlbert(80, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dynmon.New(dynmon.Graph(g), dynmon.Colors(2), dynmon.WithRule("threshold"))
	if err != nil {
		t.Fatal(err)
	}
	hubs := sys.SeedTopByDegree(5, 1, 2)
	if hubs.Count(1) != 5 {
		t.Fatalf("hub seed size = %d, want 5", hubs.Count(1))
	}
	rnd := sys.SeedRandom(7, 1, 2, 9)
	if rnd.Count(1) != 7 {
		t.Fatalf("random seed size = %d, want 7", rnd.Count(1))
	}
	seeds := sys.TargetSet(dynmon.TargetSetSpec{Target: 1, Background: 2, MaxSeed: 6, MaxRounds: 120, CandidateSample: 15, Seed: 4})
	want := graphs.GreedyTargetSet(g, rules.Threshold{Target: 1, Theta: 2}, 1, 2, 6, 120, 15, rng.New(4))
	if len(seeds) != len(want) {
		t.Fatalf("greedy chose %d seeds, internal path %d", len(seeds), len(want))
	}
	for i := range seeds {
		if seeds[i] != want[i] {
			t.Fatalf("greedy choice %d: %d vs %d", i, seeds[i], want[i])
		}
	}
	// Torus systems get the degree-uniform degenerate behavior.
	torus, err := dynmon.New(dynmon.Mesh(6, 6), dynmon.Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	if got := torus.SeedTopByDegree(4, 1, 2).Count(1); got != 4 {
		t.Fatalf("torus hub seed size = %d, want 4", got)
	}
}

func TestGraphSystemSessionBatch(t *testing.T) {
	sys, err := dynmon.New(dynmon.WattsStrogatz(100, 4, 0.2, 2), dynmon.Colors(2), dynmon.WithRule("threshold"))
	if err != nil {
		t.Fatal(err)
	}
	initials := []*dynmon.Coloring{
		sys.SeedTopByDegree(4, 1, 2),
		sys.SeedRandom(6, 1, 2, 3),
		sys.SeedRandom(6, 1, 2, 4),
	}
	batch, err := sys.NewSession(3).RunBatch(context.Background(), initials, dynmon.MaxRounds(400))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i, res := range batch {
		single, err := sys.Run(ctx, initials[i], dynmon.MaxRounds(400))
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != single.Rounds || !res.Final.Equal(single.Final) {
			t.Fatalf("batch item %d diverged from the single run", i)
		}
	}
}

func TestTimeVaryingKernelRefusalSurfacesPublicly(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(6, 6), dynmon.Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run(context.Background(), sys.RandomColoring(1),
		dynmon.TimeVarying(dynmon.Bernoulli{P: 0.5, Seed: 1}),
		dynmon.Kernel(dynmon.KernelFrontier))
	if !errors.Is(err, dynmon.ErrTimeVaryingSweepOnly) {
		t.Fatalf("want ErrTimeVaryingSweepOnly through the public surface, got %v", err)
	}
}

func TestTimeVaryingOnGraphSystem(t *testing.T) {
	sys, err := dynmon.New(dynmon.BarabasiAlbert(150, 2, 5), dynmon.Colors(2), dynmon.WithRule("threshold"))
	if err != nil {
		t.Fatal(err)
	}
	seed := sys.SeedTopByDegree(6, 1, 2)
	ctx := context.Background()
	full, err := sys.Run(ctx, seed, dynmon.MaxRounds(400))
	if err != nil {
		t.Fatal(err)
	}
	churny, err := sys.Run(ctx, seed,
		dynmon.TimeVarying(dynmon.Bernoulli{P: 0.7, Seed: 9}),
		dynmon.MaxRounds(400))
	if err != nil {
		t.Fatal(err)
	}
	// The irreversible cascade still spreads under churn, just not faster
	// than with every link up.
	if churny.Final.Count(1) < seed.Count(1) {
		t.Fatal("irreversible threshold must never lose activated vertices")
	}
	if churny.Final.Count(1) > full.Final.Count(1) {
		t.Fatal("link churn must not activate more than full availability")
	}
}

// TestTargetSetSpec pins the options-struct form of the greedy search: an
// explicit spec matches the deprecated positional wrapper argument for
// argument, zero fields resolve to the documented defaults, and the spec
// round-trips through JSON.
func TestTargetSetSpec(t *testing.T) {
	g, err := dynmon.NewBarabasiAlbert(80, 2, 33)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := dynmon.New(dynmon.Graph(g), dynmon.Colors(2), dynmon.WithRule("threshold"))
	if err != nil {
		t.Fatal(err)
	}

	spec := dynmon.TargetSetSpec{Target: 1, Background: 2, MaxSeed: 6, MaxRounds: 120, CandidateSample: 15, Seed: 4}
	got := sys.TargetSet(spec)
	want := graphs.GreedyTargetSet(g, rules.Threshold{Target: 1, Theta: 2}, 1, 2, 6, 120, 15, rng.New(4))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("TargetSet(%+v) = %v, internal greedy path %v", spec, got, want)
	}

	// Zero values: target 1 over background 2 (the next palette color), up
	// to 8 seeds, default budget, full candidate scan, seed 0.
	defaults := sys.TargetSet(dynmon.TargetSetSpec{})
	explicit := sys.TargetSet(dynmon.TargetSetSpec{Target: 1, Background: 2, MaxSeed: 8, MaxRounds: 0, CandidateSample: 0, Seed: 0})
	if fmt.Sprint(defaults) != fmt.Sprint(explicit) {
		t.Fatalf("zero spec = %v, explicit defaults %v", defaults, explicit)
	}

	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back dynmon.TargetSetSpec
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Fatalf("JSON round-trip changed the spec: %+v vs %+v", back, spec)
	}
}
