package dynmon

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/tvg"
)

// randomInitial builds a reproducible k-color random coloring on sys.
func randomInitial(sys *System, seed uint64, k int) *Coloring {
	src := rng.New(seed)
	c := sys.NewColoring(None)
	for v := 0; v < sys.N(); v++ {
		c.Set(v, Color(src.Intn(k)+1))
	}
	return c
}

// streamResultsEqual compares the Result fields both paths must agree on.
func streamResultsEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Rounds != b.Rounds {
		t.Fatalf("%s: rounds %d vs %d", label, a.Rounds, b.Rounds)
	}
	if a.FixedPoint != b.FixedPoint || a.Cycle != b.Cycle {
		t.Fatalf("%s: fixedpoint/cycle (%v,%v) vs (%v,%v)", label, a.FixedPoint, a.Cycle, b.FixedPoint, b.Cycle)
	}
	if a.Monochromatic != b.Monochromatic || a.FinalColor != b.FinalColor {
		t.Fatalf("%s: monochromatic (%v,%v) vs (%v,%v)", label, a.Monochromatic, a.FinalColor, b.Monochromatic, b.FinalColor)
	}
	if a.MonotoneTarget != b.MonotoneTarget {
		t.Fatalf("%s: monotone %v vs %v", label, a.MonotoneTarget, b.MonotoneTarget)
	}
	if len(a.ChangesPerRound) != len(b.ChangesPerRound) {
		t.Fatalf("%s: %d vs %d change records", label, len(a.ChangesPerRound), len(b.ChangesPerRound))
	}
	for i := range a.ChangesPerRound {
		if a.ChangesPerRound[i] != b.ChangesPerRound[i] {
			t.Fatalf("%s: round %d changed %d vs %d", label, i+1, a.ChangesPerRound[i], b.ChangesPerRound[i])
		}
	}
	if !a.Final.Equal(b.Final) {
		t.Fatalf("%s: final configurations differ", label)
	}
	if (a.FirstReached == nil) != (b.FirstReached == nil) {
		t.Fatalf("%s: FirstReached nil-ness differs", label)
	}
	for i := range a.FirstReached {
		if a.FirstReached[i] != b.FirstReached[i] {
			t.Fatalf("%s: FirstReached[%d] = %d vs %d", label, i, a.FirstReached[i], b.FirstReached[i])
		}
	}
}

// forEachRuleTopologyK drives the acceptance matrix: every registered rule
// × every registered topology × k ∈ {2, 3, 4}.
func forEachRuleTopologyK(t *testing.T, fn func(t *testing.T, label string, sys *System, initial *Coloring)) {
	t.Helper()
	seen := map[string]bool{}
	for _, ruleName := range RuleNames() {
		for _, topoName := range TopologyNames() {
			sys, err := New(WithTopology(topoName, 6, 7), Colors(4), WithRule(ruleName))
			if err != nil {
				t.Fatal(err)
			}
			// Aliases resolve to the same system; run each combination once.
			key := sys.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			for k := 2; k <= 4; k++ {
				label := ruleName + "/" + topoName + "/k=" + string(rune('0'+k))
				fn(t, label, sys, randomInitial(sys, uint64(k)*17, k))
			}
		}
	}
}

// TestStepsMatchesRunEveryRuleTopologyK is the acceptance differential for
// the streaming tentpole: a fully drained Steps stream must be bit-identical
// to System.Run on every registered rule × topology × k ∈ {2,3,4}.
func TestStepsMatchesRunEveryRuleTopologyK(t *testing.T) {
	opts := []RunOption{Target(1), DetectCycles(), MaxRounds(40)}
	forEachRuleTopologyK(t, func(t *testing.T, label string, sys *System, initial *Coloring) {
		run, err := sys.Run(context.Background(), initial, opts...)
		if err != nil {
			t.Fatalf("%s: run: %v", label, err)
		}
		var streamed *Result
		rounds := 0
		for st, err := range sys.Steps(context.Background(), initial, opts...) {
			if err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			rounds++
			if st.Round() != rounds {
				t.Fatalf("%s: step %d reported round %d", label, rounds, st.Round())
			}
			if st.Done() {
				streamed = st.Result()
			}
		}
		if streamed == nil {
			t.Fatalf("%s: stream never finished", label)
		}
		if rounds != run.Rounds {
			t.Fatalf("%s: streamed %d rounds, run executed %d", label, rounds, run.Rounds)
		}
		streamResultsEqual(t, label, streamed, run)
	})
}

// TestResumeMatchesRunEveryRuleTopologyK is the acceptance differential for
// checkpoint/resume: a run interrupted at a mid-run round, checkpointed
// through the serializable wire form (JSON round trip included) and resumed,
// must be bit-identical to the uninterrupted run on every registered rule ×
// topology × k ∈ {2,3,4}.
func TestResumeMatchesRunEveryRuleTopologyK(t *testing.T) {
	opts := []RunOption{Target(1), DetectCycles(), MaxRounds(40)}
	forEachRuleTopologyK(t, func(t *testing.T, label string, sys *System, initial *Coloring) {
		full, err := sys.Run(context.Background(), initial, opts...)
		if err != nil {
			t.Fatalf("%s: run: %v", label, err)
		}
		if full.Rounds < 2 {
			return // nothing mid-run to checkpoint
		}
		at := full.Rounds / 2
		var cp *Checkpoint
		for st, err := range sys.Steps(context.Background(), initial, opts...) {
			if err != nil {
				t.Fatalf("%s: stream: %v", label, err)
			}
			if st.Round() == at {
				cp, err = st.Checkpoint()
				if err != nil {
					t.Fatalf("%s: checkpoint: %v", label, err)
				}
				break
			}
		}
		wire, err := cp.JSON()
		if err != nil {
			t.Fatalf("%s: marshal: %v", label, err)
		}
		parsed, err := ParseCheckpoint(wire)
		if err != nil {
			t.Fatalf("%s: parse: %v", label, err)
		}
		resumed, err := sys.Resume(context.Background(), parsed)
		if err != nil {
			t.Fatalf("%s: resume: %v", label, err)
		}
		streamResultsEqual(t, label+"/resume-at-"+string(rune('0'+at%10)), resumed, full)
	})
}

// TestCheckpointMigratesAcrossSystems pins the migration story: a
// checkpoint's embedded system spec rebuilds the system in a "different
// process" (a fresh System value) and the resumed run matches.
func TestCheckpointMigratesAcrossSystems(t *testing.T) {
	sys, err := New(Mesh(12, 12), Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := sys.MinimumDynamo(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := []RunOption{Target(1), StopWhenMonochromatic(), DetectCycles()}
	full, err := sys.Run(context.Background(), cons.Coloring, opts...)
	if err != nil {
		t.Fatal(err)
	}

	var cp *Checkpoint
	for st, err := range sys.Steps(context.Background(), cons.Coloring, opts...) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Round() == 4 {
			cp, err = st.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if cp.System == nil {
		t.Fatal("checkpoint carries no system spec")
	}
	wire, err := cp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCheckpoint(wire)
	if err != nil {
		t.Fatal(err)
	}
	elsewhere, err := parsed.System.New()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := elsewhere.Resume(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	streamResultsEqual(t, "migrated", resumed, full)

	// A mismatched system refuses the checkpoint.
	other, err := New(Cordalis(12, 12), Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Resume(context.Background(), parsed); err == nil {
		t.Fatal("checkpoint accepted by a different system")
	}
}

// TestStepsObserverAdapter pins that observers attached to a streamed run
// fire exactly as they do on Run — the Observer plumbing is one adapter
// over the stream.
func TestStepsObserverAdapter(t *testing.T) {
	sys, err := New(Mesh(9, 9), Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := sys.MinimumDynamo(1)
	if err != nil {
		t.Fatal(err)
	}

	runStats := NewStatsCollector(1)
	res, err := sys.Run(context.Background(), cons.Coloring,
		Target(1), StopWhenMonochromatic(), WithObserver(runStats))
	if err != nil {
		t.Fatal(err)
	}

	streamStats := NewStatsCollector(1)
	for _, err := range sys.Steps(context.Background(), cons.Coloring,
		Target(1), StopWhenMonochromatic(), WithObserver(streamStats)) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(streamStats.TargetCounts) != len(runStats.TargetCounts) {
		t.Fatalf("observer saw %d rounds via stream, %d via run", len(streamStats.TargetCounts), len(runStats.TargetCounts))
	}
	for i := range runStats.TargetCounts {
		if streamStats.TargetCounts[i] != runStats.TargetCounts[i] {
			t.Fatalf("round %d: stream observer %d vs run observer %d", i+1, streamStats.TargetCounts[i], runStats.TargetCounts[i])
		}
	}
	if !streamStats.Takeover() || res.Rounds != len(runStats.TargetCounts) {
		t.Fatal("observer adapter missed rounds")
	}
}

// TestTimeVaryingCheckpoint pins availability handling in checkpoints: the
// built-in models serialize to their spec form; a custom implementation is
// an explicit error, not a silently wrong resume.
func TestTimeVaryingCheckpoint(t *testing.T) {
	sys, err := New(Mesh(8, 8), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := randomInitial(sys, 5, 3)
	opts := []RunOption{MaxRounds(30), TimeVarying(Bernoulli{P: 0.8, Seed: 9})}

	full, err := sys.Run(context.Background(), initial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	for st, err := range sys.Steps(context.Background(), initial, opts...) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Round() == 7 {
			cp, err = st.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if cp.Run == nil || cp.Run.TimeVarying == nil || cp.Run.TimeVarying.Model != "bernoulli" {
		t.Fatalf("Bernoulli model did not serialize: %+v", cp.Run)
	}
	wire, err := cp.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCheckpoint(wire)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := sys.Resume(context.Background(), parsed)
	if err != nil {
		t.Fatal(err)
	}
	streamResultsEqual(t, "tv-resume", resumed, full)

	// A custom model has no wire form; Checkpoint must refuse.
	custom := customAvailability{}
	for st, err := range sys.Steps(context.Background(), initial, MaxRounds(30), TimeVarying(custom)) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Round() == 2 {
			if _, err := st.Checkpoint(); err == nil || !strings.Contains(err.Error(), "spec form") {
				t.Fatalf("custom availability checkpointed: %v", err)
			}
			break
		}
	}
}

// customAvailability is an Availability with no spec form.
type customAvailability struct{}

func (customAvailability) Available(round, u, v int) bool { return round%2 == 0 || u+v > 3 }

// TestAvailabilitySpecRoundTripExact pins that the built-in models survive
// the spec round trip value-exactly — degenerate layers included.  A
// NodeFaults over a never-available Bernoulli link layer must NOT come back
// as always-on links: that would silently change the resumed dynamics.
func TestAvailabilitySpecRoundTripExact(t *testing.T) {
	models := []Availability{
		AlwaysOn{},
		Bernoulli{P: 0.4, Seed: 3},
		Bernoulli{P: 0, Seed: 1},
		Periodic{Period: 5, Off: 2},
		NodeFaults{P: 0.9, Seed: 2},
		NodeFaults{Links: AlwaysOn{}, P: 0.9, Seed: 2},
		NodeFaults{Links: Bernoulli{P: 0, Seed: 1}, P: 0.9, Seed: 2},
		NodeFaults{Links: Bernoulli{P: 0.5, Seed: 8}, P: 0.7, Seed: 4},
	}
	for _, m := range models {
		spec, ok := availabilitySpecOf(m)
		if !ok {
			t.Fatalf("%#v: no spec form", m)
		}
		rebuilt, err := spec.Build()
		if err != nil {
			t.Fatalf("%#v: %v", m, err)
		}
		for round := 1; round <= 6; round++ {
			for u := 0; u < 4; u++ {
				for v := u + 1; v < 5; v++ {
					if m.Available(round, u, v) != rebuilt.Available(round, u, v) {
						t.Fatalf("%#v: rebuilt model diverges at (%d,%d,%d)", m, round, u, v)
					}
				}
			}
		}
	}
	if _, ok := availabilitySpecOf(NodeFaults{Links: customAvailability{}, P: 0.5}); ok {
		t.Fatal("custom link layer silently serialized")
	}
}

// TestVerifyBatchNormalizesParallelism pins the satellite fix: a verify
// batch forcing per-run parallelism is normalized exactly as RunBatch
// normalizes it — the batch is the unit of parallelism — instead of
// oversubscribing the worker pool.
func TestVerifyBatchNormalizesParallelism(t *testing.T) {
	sys, err := New(Mesh(9, 9), Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	session := sys.NewSession(4)
	var initials []*Coloring
	for seed := uint64(1); seed <= 6; seed++ {
		initials = append(initials, sys.RandomColoring(seed))
	}

	plain, err := session.VerifyBatch(context.Background(), initials, 1)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := session.VerifyBatch(context.Background(), initials, 1, Parallel(8), Kernel(KernelParallel))
	if err != nil {
		t.Fatal(err)
	}
	for i := range forced {
		res := forced[i].Result
		if res.Workers != 1 {
			t.Fatalf("item %d ran with %d workers inside a batch", i, res.Workers)
		}
		if res.Kernel == KernelParallel {
			t.Fatalf("item %d kept the parallel kernel inside a batch", i)
		}
		streamResultsEqual(t, "verify-batch", res, plain[i].Result)
	}
}

// TestRunSpecTimeVaryingSpecPath pins the declarative availability path:
// RunSpec.TimeVarying builds the same model the imperative option injects.
func TestRunSpecTimeVaryingSpecPath(t *testing.T) {
	sys, err := New(Mesh(8, 8), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := randomInitial(sys, 3, 3)
	viaOption, err := sys.Run(context.Background(), initial, MaxRounds(25), TimeVarying(tvg.Bernoulli{P: 0.7, Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := sys.RunSpecced(context.Background(), initial, RunSpec{
		MaxRounds:   25,
		TimeVarying: &AvailabilitySpec{Model: "bernoulli", P: 0.7, Seed: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	streamResultsEqual(t, "tv-spec-vs-option", viaSpec, viaOption)
}

// TestAvailabilitySpecValidation pins the availability parameters to their
// domains, as schedules and noise are: each out-of-range section below once
// ran (a bernoulli p of -1 ran 112 rounds on an 8x8 mesh with no link ever
// up), and System.Run now returns an error naming the model and the field.
// P = 0 and the static zero-period model stay legal.
func TestAvailabilitySpecValidation(t *testing.T) {
	sys, err := New(Mesh(8, 8), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := randomInitial(sys, 3, 3)
	run := func(section string) error {
		var rs RunSpec
		if err := json.Unmarshal([]byte(section), &rs); err != nil {
			t.Fatal(err)
		}
		_, err := sys.Run(context.Background(), initial, WithRunSpec(rs))
		return err
	}
	for _, c := range []struct{ section, want string }{
		{`{"time_varying":{"model":"bernoulli","p":-1}}`, "bernoulli availability p -1 outside [0, 1]"},
		{`{"time_varying":{"model":"node-faults","p":2,"links":{"model":"bernoulli","p":7}}}`, "node-faults availability p 2 outside [0, 1]"},
		{`{"time_varying":{"model":"node-faults","p":0.5,"links":{"model":"bernoulli","p":7}}}`, "bernoulli availability p 7 outside [0, 1]"},
		{`{"time_varying":{"model":"periodic","period":-4,"off":-1}}`, "periodic availability period -4 is negative"},
		{`{"time_varying":{"model":"periodic","period":4,"off":-1}}`, "periodic availability off -1 is negative"},
	} {
		if err := run(c.section); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.section, err, c.want)
		}
	}
	for _, section := range []string{
		`{"time_varying":{"model":"bernoulli","p":0},"max_rounds":5}`,
		`{"time_varying":{"model":"node-faults","p":1,"links":{"model":"bernoulli","p":0}},"max_rounds":5}`,
		`{"time_varying":{"model":"periodic"},"max_rounds":5}`,
	} {
		if err := run(section); err != nil {
			t.Errorf("%s: %v", section, err)
		}
	}
}
