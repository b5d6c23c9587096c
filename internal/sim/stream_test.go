package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// coloringT abbreviates the coloring type in observer signatures below.
type coloringT = color.Coloring

// TestStreamYieldsEveryRound checks the basic stream contract: one step per
// round matching the batch Result's trace, a terminal Done step carrying the
// completed Result, and a per-round Config equal to the recorded history.
func TestStreamYieldsEveryRound(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(9, 9, 1)
	opt := Options{Target: 1, StopWhenMonochromatic: true, RecordHistory: true}

	batch := eng.Run(initial, opt)

	var (
		rounds  []int
		changes []int
		final   *Result
	)
	for st, err := range eng.Stream(context.Background(), initial, opt) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		rounds = append(rounds, st.Round)
		changes = append(changes, st.Changed)
		if !st.Config().Equal(batch.History[st.Round-1]) {
			t.Fatalf("round %d: streamed configuration differs from history", st.Round)
		}
		if st.Done {
			final = st.Result
		}
	}
	if final == nil {
		t.Fatal("stream ended without a Done step")
	}
	resultsEqual(t, "stream-vs-run", final, batch)
	if len(changes) != len(batch.ChangesPerRound) {
		t.Fatalf("streamed %d rounds, run recorded %d", len(changes), len(batch.ChangesPerRound))
	}
	for i := range changes {
		if rounds[i] != i+1 {
			t.Fatalf("step %d reported round %d", i, rounds[i])
		}
		if changes[i] != batch.ChangesPerRound[i] {
			t.Fatalf("round %d: streamed %d changes, run recorded %d", i+1, changes[i], batch.ChangesPerRound[i])
		}
	}
}

// TestStreamEarlyBreak pins that breaking out of the loop stops the run at
// that round boundary and leaves the engine fully reusable (its pooled
// buffers must be returned, not leaked mid-run).
func TestStreamEarlyBreak(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(9, 9, 1)
	opt := Options{Target: 1, StopWhenMonochromatic: true}

	seen := 0
	for st, err := range eng.Stream(context.Background(), initial, opt) {
		if err != nil {
			t.Fatalf("stream error: %v", err)
		}
		seen++
		if st.Round == 3 {
			break
		}
	}
	if seen != 3 {
		t.Fatalf("saw %d steps before the break, want 3", seen)
	}
	// The engine must still produce a pristine full run afterwards.
	resultsEqual(t, "after-break", eng.Run(initial, opt), eng.Run(initial, Options{Target: 1, StopWhenMonochromatic: true, Kernel: KernelSweep}))
}

// TestStreamCancellation checks that a canceled context surfaces as a final
// (partial-result, error) yield, matching RunContext's abort contract.
func TestStreamCancellation(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 12, 12)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(12, 12, 1)

	ctx, cancel := context.WithCancel(context.Background())
	var lastErr error
	var partial *Result
	for st, err := range eng.Stream(ctx, initial, Options{Target: 1, StopWhenMonochromatic: true}) {
		if err != nil {
			lastErr = err
			partial = st.Result
			continue
		}
		if st.Round == 2 {
			cancel()
		}
		if st.Done {
			t.Fatal("canceled stream completed anyway")
		}
	}
	cancel()
	if !errors.Is(lastErr, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", lastErr)
	}
	if partial == nil || partial.Rounds != 2 || partial.Final == nil {
		t.Fatalf("partial result = %+v, want 2 completed rounds with a final configuration", partial)
	}
}

// TestStreamForcedKernelError pins that selection errors are yielded, not
// panicked: a forced bitplane kernel on an ineligible coloring.
func TestStreamForcedKernelError(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(1, topo.Dims(), 5) // 5 colors: bitplane needs <=4

	sawError := false
	for st, err := range eng.Stream(context.Background(), initial, Options{Kernel: KernelBitplane}) {
		if err == nil {
			t.Fatalf("expected an eligibility error, got step round %d", st.Round)
		}
		if !errors.Is(err, ErrBitplaneIneligible) {
			t.Fatalf("error = %v, want ErrBitplaneIneligible", err)
		}
		sawError = true
	}
	if !sawError {
		t.Fatal("stream yielded nothing")
	}
}

// checkpointAt streams the run up to round `at`, snapshots a checkpoint
// there and abandons the stream.
func checkpointAt(t *testing.T, eng *Engine, initial *coloringT, opt Options, at int) *Resume {
	t.Helper()
	var cp *Resume
	for st, err := range eng.Stream(context.Background(), initial, opt) {
		if err != nil {
			t.Fatalf("stream error before round %d: %v", at, err)
		}
		if st.Round == at || st.Done {
			cp = st.Checkpoint()
			break
		}
	}
	if cp == nil {
		t.Fatalf("no checkpoint at round %d", at)
	}
	return cp
}

// TestResumeBitIdenticalEveryRuleTopologyKernel is the differential oracle
// of checkpoint/resume: on every registered rule × topology kind, for every
// scalar kernel (plus the automatic tier, which may run the bitplane and
// downshift mid-run), a run interrupted at an arbitrary mid-run round and
// resumed from its checkpoint must equal the uninterrupted run field for
// field — rounds, per-round change counts, verdicts, final configuration,
// first-reach trace.
func TestResumeBitIdenticalEveryRuleTopologyKernel(t *testing.T) {
	kernels := []Kernel{KernelAuto, KernelFrontier, KernelSweep, KernelParallel}
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			topo := grid.MustNew(kind, 6, 7)
			eng := NewEngine(topo, rule)
			initial := randomTestColoring(7, topo.Dims(), 4)
			for _, kernel := range kernels {
				opt := Options{MaxRounds: 40, Target: 1, DetectCycles: true, Kernel: kernel}
				full := eng.Run(initial, opt)
				if full.Rounds < 2 {
					continue // nothing mid-run to checkpoint
				}
				at := full.Rounds / 2
				cp := checkpointAt(t, eng, initial, opt, at)
				resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
				if err != nil {
					t.Fatalf("%s/%s/%v: resume: %v", name, topo.Name(), kernel, err)
				}
				resultsEqual(t, name+"/"+topo.Name()+"/"+kernel.String()+"/resume", resumed, full)
			}
		}
	}
}

// TestResumeEveryRound interrupts one converging run at every single round
// and checks each resume reproduces the uninterrupted result exactly,
// including resuming from the terminal checkpoint (whose budget is already
// satisfied by its stop condition).
func TestResumeEveryRound(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(9, 9, 1)
	opt := Options{Target: 1, StopWhenMonochromatic: true, DetectCycles: true}

	full := eng.Run(initial, opt)
	for at := 1; at <= full.Rounds; at++ {
		cp := checkpointAt(t, eng, initial, opt, at)
		resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
		if err != nil {
			t.Fatalf("resume at round %d: %v", at, err)
		}
		resultsEqual(t, "resume-at-round", resumed, full)
	}
}

// TestResumeCycleAcrossBoundary pins the stop-detector state in the
// checkpoint: a period-2 oscillation that spans the checkpoint boundary is
// detected at exactly the same round as in an uninterrupted run, because the
// previous configuration rides along.  Without it (Prev == nil) the detector
// restarts and flags the cycle two rounds later — still a cycle, never a
// wrong answer.
func TestResumeCycleAcrossBoundary(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	eng := NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
	initial := oscillator2(topo.Dims(), 5, 5, 1, 2)
	opt := Options{MaxRounds: 50, DetectCycles: true}

	full := eng.Run(initial, opt)
	if !full.Cycle || full.Rounds != 2 {
		t.Fatalf("uninterrupted run: cycle=%v rounds=%d, want cycle at round 2", full.Cycle, full.Rounds)
	}

	cp := checkpointAt(t, eng, initial, opt, 1)
	if cp.Prev == nil {
		t.Fatal("checkpoint at round 1 lost the previous configuration")
	}
	resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "cycle-boundary", resumed, full)

	// Drop the detector seed: the resume is still sound, just later.
	blind := *cp
	blind.Prev = nil
	late, err := drainStream(eng.StreamFrom(context.Background(), &blind, opt))
	if err != nil {
		t.Fatal(err)
	}
	if !late.Cycle {
		t.Fatalf("prev-less resume never detected the oscillation (rounds=%d)", late.Rounds)
	}
	if late.Rounds <= full.Rounds {
		t.Fatalf("prev-less resume detected the cycle at round %d, expected later than %d", late.Rounds, full.Rounds)
	}
}

// TestStreamFromRejectsRoundZeroPrev: no run knows a previous configuration
// before round 1, and the sweep would seed its period-2 trace from one, so
// a round-0 resume state that carries one is refused on every tier.
func TestStreamFromRejectsRoundZeroPrev(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(5, topo.Dims(), 2)
	opt := Options{Target: 1, StopWhenMonochromatic: true, DetectCycles: true}
	after := checkpointAt(t, eng, initial, opt, 1)
	forged := &Resume{Config: initial, Prev: after.Config, ChangesPerRound: []int{}}
	for _, k := range []Kernel{KernelAuto, KernelFrontier, KernelSweep, KernelParallel} {
		opt.Kernel = k
		yielded := 0
		for st, err := range eng.StreamFrom(context.Background(), forged, opt) {
			yielded++
			if err == nil || st != nil {
				t.Fatalf("%v: StreamFrom yielded (%v, %v), want one error", k, st, err)
			}
		}
		if yielded != 1 {
			t.Fatalf("%v: StreamFrom yielded %d times, want one error", k, yielded)
		}
	}
}

// TestRunContextRejectsWrongDimensions: a fresh run on a coloring whose
// dimensions do not match the substrate enters the engine as a resumed one
// does and returns an error instead of panicking, on every tier.
func TestRunContextRejectsWrongDimensions(t *testing.T) {
	eng := NewEngine(grid.MustNew(grid.KindToroidalMesh, 4, 4), rules.SMP{})
	wrong := randomTestColoring(1, grid.Dims{Rows: 4, Cols: 5}, 2)
	for _, k := range []Kernel{KernelAuto, KernelBitplane, KernelFrontier, KernelSweep, KernelParallel} {
		res, err := eng.RunContext(context.Background(), wrong, Options{Kernel: k})
		if err == nil || res != nil {
			t.Fatalf("%v: a 4x5 coloring on a 4x4 torus gave (%v, %v), want an error", k, res, err)
		}
	}
}

// TestResumeFromCanceledResult exercises the Result-side checkpoint: cancel
// a run mid-flight, emit ResumeState from the partial result, resume, and
// compare against the uninterrupted run.
func TestResumeFromCanceledResult(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 12, 12)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(12, 12, 1)
	opt := Options{Target: 1, StopWhenMonochromatic: true, DetectCycles: true}

	full := eng.Run(initial, opt)

	ctx, cancel := context.WithCancel(context.Background())
	rounds := 0
	obs := RoundFunc(func(round int, _ *coloringT) {
		rounds++
		if rounds == 3 {
			cancel()
		}
	})
	aborted := opt
	aborted.Observers = []Observer{obs}
	partial, err := eng.RunContext(ctx, initial, aborted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rs, ok := partial.ResumeState()
	if !ok {
		t.Fatal("partial result has no resume state")
	}
	resumed, err := drainStream(eng.StreamFrom(context.Background(), rs, opt))
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "resume-from-cancel", resumed, full)
}

// TestResumeOnBitplaneEligibleRun checkpoints an auto run whose early rounds
// execute on the bitplane tier (two colors, shift-regular torus), which
// exercises the word-level previous-configuration reconstruction and the
// frontier handoff, then resumes and compares.
func TestResumeOnBitplaneEligibleRun(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(3, topo.Dims(), 2)
	opt := Options{MaxRounds: 60, DetectCycles: true, Target: 1}

	full := eng.Run(initial, opt)
	if full.Kernel != KernelBitplane {
		t.Fatalf("auto run used %v, expected the bitplane tier", full.Kernel)
	}
	for at := 1; at < full.Rounds; at++ {
		cp := checkpointAt(t, eng, initial, opt, at)
		resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
		if err != nil {
			t.Fatalf("resume at %d: %v", at, err)
		}
		resultsEqual(t, "bitplane-resume", resumed, full)
	}

	// A forced bitplane resume is a contract violation, not a silent
	// downgrade.
	cp := checkpointAt(t, eng, initial, opt, 1)
	forced := opt
	forced.Kernel = KernelBitplane
	if _, err := drainStream(eng.StreamFrom(context.Background(), cp, forced)); !errors.Is(err, ErrBitplaneIneligible) {
		t.Fatalf("forced bitplane resume: err = %v, want ErrBitplaneIneligible", err)
	}
}

// TestObserveStreamAdapter pins the Observer contract through the stream
// adapter: OnRound once per executed round in order, OnFinish exactly once
// with the final Result — identical for a drained Stream and for Run (which
// is itself a drain of the observed stream).
func TestObserveStreamAdapter(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(9, 9, 1)

	type record struct {
		rounds   []int
		finishes int
	}
	collect := func(rec *record) []Observer {
		return []Observer{roundFinishObserver{
			onRound:  func(round int, _ *coloringT) { rec.rounds = append(rec.rounds, round) },
			onFinish: func(*Result) { rec.finishes++ },
		}}
	}

	var viaRun record
	res := eng.Run(initial, Options{Target: 1, StopWhenMonochromatic: true, Observers: collect(&viaRun)})

	var viaStream record
	for _, err := range eng.Stream(context.Background(), initial, Options{Target: 1, StopWhenMonochromatic: true, Observers: collect(&viaStream)}) {
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(viaRun.rounds) != res.Rounds || viaRun.finishes != 1 {
		t.Fatalf("run observer: %d rounds (want %d), %d finishes (want 1)", len(viaRun.rounds), res.Rounds, viaRun.finishes)
	}
	if len(viaStream.rounds) != len(viaRun.rounds) || viaStream.finishes != 1 {
		t.Fatalf("stream observer: %d rounds (want %d), %d finishes (want 1)", len(viaStream.rounds), len(viaRun.rounds), viaStream.finishes)
	}
	for i := range viaRun.rounds {
		if viaRun.rounds[i] != i+1 || viaStream.rounds[i] != i+1 {
			t.Fatalf("observer round order diverged at index %d", i)
		}
	}
}

// roundFinishObserver is a two-callback Observer for tests.
type roundFinishObserver struct {
	onRound  func(int, *coloringT)
	onFinish func(*Result)
}

func (o roundFinishObserver) OnRound(round int, c *coloringT) { o.onRound(round, c) }
func (o roundFinishObserver) OnFinish(r *Result)              { o.onFinish(r) }
