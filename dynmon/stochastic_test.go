package dynmon

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"
)

// stochasticRunOpts enumerates the schedule × noise surface of the wire
// layer, one RunOption bundle per combination.
func stochasticRunOpts() map[string][]RunOption {
	return map[string][]RunOption{
		"uniform-async":        {UniformAsync(0.5, 11)},
		"uniform-async-noisy":  {UniformAsync(0.7, 11), Noisy(0.05, 21)},
		"sequential":           {Sequential()},
		"sequential-noisy":     {Sequential(), Noisy(0.1, 22)},
		"random-sequential":    {RandomSequential(12)},
		"vertex-clock":         {VertexClock(3, 13)},
		"vertex-clock-noisy":   {VertexClock(3, 13), Noisy(0.02, 23)},
		"synchronous-noisy":    {Noisy(0.08, 24)},
		"explicit-synchronous": {WithSchedule(&ScheduleSpec{Mode: "synchronous"})},
	}
}

// TestStochasticSpecFileRoundTrip pins the declarative path: for every
// schedule × noise combination, a spec file carrying the run's wire form
// reproduces the imperative run bit-identically, and the wire form survives
// a JSON round trip unchanged.
func TestStochasticSpecFileRoundTrip(t *testing.T) {
	sys, err := New(Mesh(10, 10), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.RandomColoring(7)
	for label, opts := range stochasticRunOpts() {
		t.Run(label, func(t *testing.T) {
			opts := append([]RunOption{Target(1), MaxRounds(30)}, opts...)
			direct, err := sys.Run(context.Background(), initial, opts...)
			if err != nil {
				t.Fatal(err)
			}

			rs := runSpecOf(opts)
			fs := &FileSpec{System: *mustSpec(t, sys), Initial: &InitialSpec{Config: "random", Seed: 7}, Run: rs.wireClone()}
			wire, err := json.Marshal(fs)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseFileSpec(wire)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			sent, err := json.Marshal(fs.Run)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(parsed.Run)
			if err != nil {
				t.Fatal(err)
			}
			if string(sent) != string(got) {
				t.Fatalf("run spec changed across the wire:\n  sent %s\n  got  %s", sent, got)
			}
			sys2, err := parsed.System.New()
			if err != nil {
				t.Fatal(err)
			}
			cons, err := sys2.BuildInitial(parsed.Initial, 1)
			if err != nil {
				t.Fatal(err)
			}
			viaSpec, err := sys2.Run(context.Background(), cons.Coloring, WithRunSpec(parsed.Run))
			if err != nil {
				t.Fatal(err)
			}
			streamResultsEqual(t, label, viaSpec, direct)
		})
	}
}

func mustSpec(t *testing.T, sys *System) *Spec {
	t.Helper()
	sp, err := sys.Spec()
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestStochasticCheckpointResume is the stochastic leg of the resume
// acceptance: for every schedule × noise combination, a run checkpointed
// mid-flight through the JSON wire form and resumed is bit-identical to the
// uninterrupted run — the schedule and noise specs ride the checkpoint.
func TestStochasticCheckpointResume(t *testing.T) {
	sys, err := New(Mesh(12, 12), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.RandomColoring(3)
	for label, opts := range stochasticRunOpts() {
		t.Run(label, func(t *testing.T) {
			opts := append([]RunOption{Target(1), MaxRounds(24)}, opts...)
			full, err := sys.Run(context.Background(), initial, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if full.Rounds < 2 {
				t.Skipf("%s converged in %d rounds; nothing mid-run to checkpoint", label, full.Rounds)
			}
			at := full.Rounds / 2
			var cp *Checkpoint
			for st, err := range sys.Steps(context.Background(), initial, opts...) {
				if err != nil {
					t.Fatal(err)
				}
				if st.Round() == at {
					if cp, err = st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					break
				}
			}
			wire, err := cp.JSON()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseCheckpoint(wire)
			if err != nil {
				t.Fatal(err)
			}
			if rs := parsed.Run; runSpecOf(opts).Schedule != nil && rs.Schedule == nil {
				t.Fatalf("%s: checkpoint dropped the schedule spec", label)
			}
			resumed, err := sys.Resume(context.Background(), parsed)
			if err != nil {
				t.Fatal(err)
			}
			streamResultsEqual(t, label, resumed, full)
		})
	}
}

// TestBernoulliInitial pins the bernoulli construction family: density
// bounds are validated, the extremes are exact, the configuration is a pure
// function of (seed, density), and the realized density tracks the
// parameter.
func TestBernoulliInitial(t *testing.T) {
	sys, err := New(Mesh(32, 32), Colors(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 1.5}, 1); err == nil {
		t.Fatal("density 1.5 accepted")
	}
	if _, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: -0.1}, 1); err == nil {
		t.Fatal("density -0.1 accepted")
	}

	all, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 1, Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := all.Coloring.Count(1); got != 32*32 {
		t.Fatalf("density 1 seeded %d of %d vertices", got, 32*32)
	}
	none, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 0, Seed: 9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := none.Coloring.Count(1); got != 0 {
		t.Fatalf("density 0 seeded %d vertices", got)
	}
	// Non-target cells draw from the whole remaining palette, not one color.
	seenOther := 0
	for c := Color(2); c <= 4; c++ {
		if none.Coloring.Count(c) > 0 {
			seenOther++
		}
	}
	if seenOther < 2 {
		t.Fatalf("background uses %d of 3 non-target colors; want a uniform mix", seenOther)
	}

	a, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 0.3, Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 0.3, Seed: 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Coloring.Equal(b.Coloring) {
		t.Fatal("same (seed, density) produced different configurations")
	}
	c, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 0.3, Seed: 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Coloring.Equal(c.Coloring) {
		t.Fatal("different seeds produced identical configurations")
	}
	frac := float64(a.Coloring.Count(1)) / float64(32*32)
	if frac < 0.22 || frac > 0.38 {
		t.Fatalf("realized density %.3f far from 0.3", frac)
	}
}

// TestBernoulliInitialOnGraph checks the family works on graph substrates
// through the same spec.
func TestBernoulliInitialOnGraph(t *testing.T) {
	sys, err := New(BarabasiAlbert(200, 3, 42), Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 0.4, Seed: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cons.Name != "bernoulli" {
		t.Fatalf("construction name %q", cons.Name)
	}
	n := cons.Coloring.Dims().N()
	if got := cons.Coloring.Count(1) + cons.Coloring.Count(2); got != n {
		t.Fatalf("colors outside the palette: %d of %d accounted for", got, n)
	}
}

// TestStochasticKernelGatingWire checks the engine's sweep-only pinning
// surfaces through the public API with the exported error.
func TestStochasticKernelGatingWire(t *testing.T) {
	sys, err := New(Mesh(8, 8), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.RandomColoring(1)
	if _, err := sys.Run(context.Background(), initial, UniformAsync(0.5, 1), Kernel(KernelBitplane)); !errors.Is(err, ErrStochasticSweepOnly) {
		t.Fatalf("bitplane + uniform-async: got %v, want ErrStochasticSweepOnly", err)
	}
	if _, err := sys.Run(context.Background(), initial, Sequential(), Kernel(KernelParallel)); !errors.Is(err, ErrStochasticSweepOnly) {
		t.Fatalf("parallel + sequential: got %v, want ErrStochasticSweepOnly", err)
	}
	if _, err := sys.Run(context.Background(), initial, WithSchedule(&ScheduleSpec{Mode: "no-such-mode"})); err == nil {
		t.Fatal("unknown schedule mode accepted")
	}
}

// TestNoisyRejectsNaN: a NaN fault rate is an invalid noise model, not a
// silently noise-free run.
func TestNoisyRejectsNaN(t *testing.T) {
	sys, err := New(Mesh(8, 8), Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(context.Background(), sys.RandomColoring(1), Noisy(math.NaN(), 1)); err == nil || !strings.Contains(err.Error(), "noise eps") {
		t.Fatalf("Noisy(NaN): err = %v, want the noise eps validation error", err)
	}
}

// TestNoisyZeroEpsClearsNoise pins the Noisy(0, ...) escape hatch used by
// ensemble sweeps that include a noise-free point on the ε axis.
func TestNoisyZeroEpsClearsNoise(t *testing.T) {
	rs := runSpecOf([]RunOption{Noisy(0.2, 7), Noisy(0, 0)})
	if rs.Noise != nil {
		t.Fatalf("Noisy(0) left %+v", rs.Noise)
	}
}
