package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

func randomColoring(seed uint64, m, n, k int) *color.Coloring {
	src := rng.New(seed)
	p := color.MustPalette(k)
	return color.RandomColoring(grid.MustDims(m, n), p, func() int { return src.Intn(p.K) })
}

// The parallel stepper must be bit-identical to the sequential stepper on a
// single round, for every topology.
func TestParallelStepMatchesSequential(t *testing.T) {
	for _, kind := range grid.Kinds() {
		topo := grid.MustNew(kind, 17, 23)
		eng := NewEngine(topo, rules.SMP{})
		cur := randomColoring(42, 17, 23, 5)
		seqNext := color.NewColoring(topo.Dims(), color.None)
		parNext := color.NewColoring(topo.Dims(), color.None)
		seqChanged, _ := eng.stepRange(nil, cur.Cells(), seqNext.Cells(), 0, cur.N(), nil)
		for _, workers := range []int{2, 3, 4, 8, 64, 1000} {
			parChanged := eng.StepParallel(cur, parNext, workers)
			if parChanged != seqChanged {
				t.Fatalf("%v workers=%d: changed %d vs %d", kind, workers, parChanged, seqChanged)
			}
			if !seqNext.Equal(parNext) {
				t.Fatalf("%v workers=%d: parallel result differs from sequential", kind, workers)
			}
		}
	}
}

// Full runs must agree between the sequential and parallel engines.
func TestParallelRunMatchesSequential(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 20, 20)
	eng := NewEngine(topo, rules.SMP{})
	init := randomColoring(7, 20, 20, 4)
	seq := eng.Run(init, Options{Target: 1, StopWhenMonochromatic: true, MaxRounds: 300})
	par := eng.Run(init, Options{Target: 1, StopWhenMonochromatic: true, MaxRounds: 300, Parallel: true, Workers: 4})
	if !seq.Final.Equal(par.Final) {
		t.Fatal("parallel run reached a different final configuration")
	}
	if seq.Rounds != par.Rounds {
		t.Fatalf("rounds %d vs %d", seq.Rounds, par.Rounds)
	}
	for v := range seq.FirstReached {
		if seq.FirstReached[v] != par.FirstReached[v] {
			t.Fatalf("FirstReached[%d] differs: %d vs %d", v, seq.FirstReached[v], par.FirstReached[v])
		}
	}
}

func TestParallelRunCrossDynamo(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(crossColoring(9, 9, 1), Options{
		Target: 1, StopWhenMonochromatic: true, Parallel: true, Workers: 3,
	})
	if !res.Monochromatic || res.FinalColor != 1 {
		t.Fatal("parallel cross dynamo failed")
	}
	// Theorem 7 for m=n=9: 2*max(ceil(8/2)-1, ceil(8/2)-1)+1 = 7.
	if res.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", res.Rounds)
	}
}

func TestParallelWithMoreWorkersThanVertices(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 3, 3)
	eng := NewEngine(topo, rules.SMP{})
	cur := randomColoring(1, 3, 3, 3)
	next := color.NewColoring(topo.Dims(), color.None)
	// Must not panic or deadlock.
	eng.StepParallel(cur, next, 64)
	seqNext := color.NewColoring(topo.Dims(), color.None)
	eng.stepRange(nil, cur.Cells(), seqNext.Cells(), 0, cur.N(), nil)
	if !next.Equal(seqNext) {
		t.Error("oversubscribed parallel step differs from sequential")
	}
}

// TestParallelStepDoesNotAllocate pins the persistent-pool rewrite: after
// the first step has grown the pooled stripe buffer and started the shared
// workers, steady-state parallel stepping must perform zero heap
// allocations — no per-step goroutines, closures or result slices.
func TestParallelStepDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on channel/WaitGroup operations")
	}
	topo := grid.MustNew(grid.KindToroidalMesh, 32, 32)
	eng := NewEngine(topo, rules.SMP{})
	cur := randomColoring(11, 32, 32, 5)
	next := color.NewColoring(topo.Dims(), color.None)
	// Warm up: start the pool, grow the stripe buffer, fill the state pool.
	eng.StepParallel(cur, next, 4)
	allocs := testing.AllocsPerRun(100, func() {
		eng.StepParallel(cur, next, 4)
		cur, next = next, cur
	})
	if allocs != 0 {
		t.Fatalf("parallel step allocates %.1f objects per op, want 0", allocs)
	}
}

func TestParallelPropertyEquivalence(t *testing.T) {
	f := func(seed uint64, kindSeed, sizeSeed, workerSeed uint8) bool {
		kind := grid.Kinds()[int(kindSeed)%3]
		m := 4 + int(sizeSeed)%12
		n := 4 + int(sizeSeed/2)%12
		workers := 2 + int(workerSeed)%6
		topo := grid.MustNew(kind, m, n)
		eng := NewEngine(topo, rules.SMP{})
		init := randomColoring(seed, m, n, 4)
		seq := eng.Run(init, Options{StopWhenMonochromatic: true, MaxRounds: 100})
		par := eng.Run(init, Options{StopWhenMonochromatic: true, MaxRounds: 100, Parallel: true, Workers: workers})
		return seq.Final.Equal(par.Final) && seq.Rounds == par.Rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// parallelOpts returns base with the striped parallel tier forced at the
// given worker count.
func parallelOpts(base Options, workers int) Options {
	base.Kernel = KernelParallel
	base.Parallel = true
	base.Workers = workers
	return base
}

// resultBytesEqual pins two Results byte-identical on the JSON wire, which
// carries every field a consumer can observe about the run — rounds,
// verdicts, traces, final configuration — and compares the unexported prev
// (the checkpoint seed) directly.  Nothing is normalized: the in-process
// tier diagnostics (Kernel, Workers, Downshift) are off the wire.
func resultBytesEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	gj, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Fatalf("%s: result JSON differs\n got: %s\nwant: %s", label, gj, wj)
	}
	if (got.prev == nil) != (want.prev == nil) {
		t.Fatalf("%s: prev nil-ness differs (got %v, want %v)", label, got.prev == nil, want.prev == nil)
	}
	if got.prev != nil && !got.prev.Equal(want.prev) {
		t.Fatalf("%s: prev configurations differ", label)
	}
}

// TestParallelBitIdenticalAllRulesAllTopologies is the striped tier's
// differential oracle with the in-stripe trace on: on every registered
// rule × topology kind, over random colorings on several sizes including
// the degenerate 2×n and m×2 tori (whose stripes are uneven), the striped
// sweep at 2, 3 and 4 workers must produce Results byte-identical (full
// JSON) to the sequential full sweep, with target tracking and cycle
// detection on so every stripe edge carries FirstReached, monotonicity and
// period-2 bookkeeping.  The palettes of one to nine colors put the
// stripes on the rule table, and at nine colors off it.
func TestParallelBitIdenticalAllRulesAllTopologies(t *testing.T) {
	sizes := [][2]int{{2, 7}, {7, 2}, {3, 3}, {4, 6}, {6, 6}}
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for _, colors := range []int{1, 2, 5, 8, 9} {
					for seed := uint64(1); seed <= 3; seed++ {
						initial := randomTestColoring(seed, topo.Dims(), colors)
						base := Options{MaxRounds: 40, Target: 1, DetectCycles: true}
						sweep := base
						sweep.Kernel = KernelSweep
						oracle := eng.Run(initial, sweep)
						for _, k := range []int{2, 3, 4} {
							par := eng.Run(initial, parallelOpts(base, k))
							label := fmt.Sprintf("%s/%s/%v/k=%d/workers=%d", name, topo.Name(), topo.Dims(), colors, k)
							resultBytesEqual(t, label, par, oracle)
							if par.Kernel != KernelParallel {
								t.Fatalf("%s: kernel %v, want parallel", label, par.Kernel)
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelCycleAcrossStripeBoundary pins period-2 cycle detection when
// the oscillating set spans stripe boundaries: every stripe's local verdict
// must AND into the global one at the same round the sweep detects, and
// the oscillation must actually cross a stripe boundary at every worker
// count for the test to mean anything.
func TestParallelCycleAcrossStripeBoundary(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	rule, err := rules.ByName("generalized-smp")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, rule)
	initial := randomTestColoring(1, topo.Dims(), 3)
	base := Options{MaxRounds: 60, DetectCycles: true, RecordHistory: true}
	sweep := base
	sweep.Kernel = KernelSweep
	oracle := eng.Run(initial, sweep)
	if !oracle.Cycle {
		t.Fatal("expected the oracle run to detect a cycle (seed drifted?)")
	}
	h := oracle.History
	last, before := h[len(h)-1], h[len(h)-2]
	n := last.N()
	for _, k := range []int{2, 3, 4} {
		// The last round's changed vertices must fall in more than one of
		// the k stripes (stripeAcross cuts [0, n) into chunks of ceil(n/k)),
		// otherwise the scenario does not cross a boundary.
		chunk := (n + k - 1) / k
		stripes := map[int]bool{}
		for v := 0; v < n; v++ {
			if last.At(v) != before.At(v) {
				stripes[v/chunk] = true
			}
		}
		if len(stripes) < 2 {
			t.Fatalf("workers=%d: oscillation confined to stripes %v; pick a different seed", k, stripes)
		}
		par := eng.Run(initial, parallelOpts(base, k))
		if !par.Cycle {
			t.Fatalf("workers=%d: parallel run missed the cycle", k)
		}
		label := fmt.Sprintf("cycle/workers=%d", k)
		resultBytesEqual(t, label, par, oracle)
	}
}

// TestParallelResumeMidRun checkpoints a striped run at every round —
// including rounds where the dynamics straddle stripe boundaries — and
// resumes it on the striped tier; the stitched Result must equal both an
// uninterrupted striped run and the sequential sweep, for target-tracked,
// cycle-detecting runs.
func TestParallelResumeMidRun(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	for _, ruleName := range []string{"smp", "generalized-smp"} {
		rule, err := rules.ByName(ruleName)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(topo, rule)
		initial := randomTestColoring(2, topo.Dims(), 3)
		opt := parallelOpts(Options{MaxRounds: 60, Target: 1, DetectCycles: true}, 3)
		sweep := Options{MaxRounds: 60, Target: 1, DetectCycles: true, Kernel: KernelSweep}
		oracle := eng.Run(initial, sweep)
		full := eng.Run(initial, opt)
		resultsEqual(t, ruleName+"/uninterrupted", full, oracle)

		for cutAt := 1; cutAt < full.Rounds; cutAt++ {
			var cp *Resume
			for st, err := range eng.Stream(context.Background(), initial, opt) {
				if err != nil {
					t.Fatal(err)
				}
				if st.Round == cutAt {
					cp = st.Checkpoint()
					break
				}
			}
			if cp == nil {
				t.Fatalf("%s: no checkpoint at round %d", ruleName, cutAt)
			}
			resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Kernel != KernelParallel {
				t.Fatalf("%s: resumed kernel %v, want parallel", ruleName, resumed.Kernel)
			}
			resultBytesEqual(t, ruleName+"/resumed", resumed, oracle)
		}
	}
}

// TestParallelConcurrentRuns is the race-stress case behind the CI
// `-race -count=2` step: several goroutines run striped simulations
// concurrently over one shared engine (shared stripe pool, pooled run
// states, in-stripe traces written by pool workers), each pinned against
// the sweep oracle.  The oracle runs first and never reads the rule table,
// so the engine's first table build happens under the concurrent striped
// runs.  Every other goroutine runs the auto tier instead, which takes the
// bitplane kernel, so the engine's first shift-plan probe happens under
// concurrent runs too.
func TestParallelConcurrentRuns(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 24, 24)
	eng := NewEngine(topo, rules.SMP{})
	oracle := make([]*Result, 4)
	initials := make([]*color.Coloring, 4)
	for i := range initials {
		initials[i] = randomTestColoring(uint64(10+i), topo.Dims(), 3)
		oracle[i] = eng.Run(initials[i], Options{MaxRounds: 50, Target: 1, DetectCycles: true, Kernel: KernelSweep})
	}
	if eng.tab != nil {
		t.Fatal("the oracle runs built the rule table; its first build would not race")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(initials)
			opt := Options{MaxRounds: 50, Target: 1, DetectCycles: true}
			if g%2 == 0 {
				opt = parallelOpts(opt, 1+g/2)
			}
			res := eng.Run(initials[i], opt)
			if g%2 == 1 && res.Kernel != KernelBitplane {
				t.Errorf("goroutine %d: auto run took %v, want bitplane", g, res.Kernel)
			}
			// t.Fatalf must not be called off the test goroutine.
			if res.Rounds != oracle[i].Rounds || !res.Final.Equal(oracle[i].Final) || fmt.Sprint(res.FirstReached) != fmt.Sprint(oracle[i].FirstReached) {
				t.Errorf("goroutine %d: parallel run diverged from oracle", g)
			}
		}(g)
	}
	wg.Wait()
	if eng.tab == nil {
		t.Fatal("the striped runs did not build the rule table")
	}
}
