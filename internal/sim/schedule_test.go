package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// stochasticCases enumerates every schedule × noise combination the spec
// layer can express, for the round-trip and determinism sweeps.
func stochasticCases() []struct {
	name  string
	sched *Schedule
	noise *Noise
} {
	return []struct {
		name  string
		sched *Schedule
		noise *Noise
	}{
		{"sync+noise", nil, &Noise{Eps: 0.1, Colors: 4, Seed: 11}},
		{"uniform-async", &Schedule{Kind: ScheduleUniformAsync, P: 0.5, Seed: 7}, nil},
		{"uniform-async+noise", &Schedule{Kind: ScheduleUniformAsync, P: 0.7, Seed: 7}, &Noise{Eps: 0.05, Colors: 4, Seed: 13}},
		{"sequential", &Schedule{Kind: ScheduleSequential}, nil},
		{"sequential+noise", &Schedule{Kind: ScheduleSequential}, &Noise{Eps: 0.02, Colors: 4, Seed: 3}},
		{"random-sequential", &Schedule{Kind: ScheduleRandomSequential, Seed: 21}, nil},
		{"random-sequential+noise", &Schedule{Kind: ScheduleRandomSequential, Seed: 21}, &Noise{Eps: 0.02, Colors: 4, Seed: 5}},
		{"vertex-clock", &Schedule{Kind: ScheduleVertexClock, Period: 3, Seed: 9}, nil},
		{"vertex-clock+noise", &Schedule{Kind: ScheduleVertexClock, Period: 3, Seed: 9}, &Noise{Eps: 0.03, Colors: 4, Seed: 17}},
	}
}

// TestScheduleSequentialMatchesRunAsync pins the sequential schedules
// against the standalone RunAsync oracle: the tiered driver must reproduce
// the oracle's trajectory sweep for sweep, for both activation orders.
func TestScheduleSequentialMatchesRunAsync(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 12, 12)
	eng := NewEngine(topo, rules.SMP{})
	cases := []struct {
		name  string
		kind  ScheduleKind
		order AsyncOrder
		seed  uint64
	}{
		{"raster", ScheduleSequential, AsyncRaster, 0},
		{"random", ScheduleRandomSequential, AsyncRandom, 42},
	}
	for _, c := range cases {
		for _, initSeed := range []uint64{1, 2, 3} {
			initial := randomColoring(initSeed, 12, 12, 4)
			oracle := eng.RunAsync(initial, AsyncOptions{Order: c.order, Seed: c.seed, StopWhenMonochromatic: true})
			res := eng.Run(initial, Options{
				Schedule:              &Schedule{Kind: c.kind, Seed: c.seed},
				StopWhenMonochromatic: true,
			})
			if !res.Final.Equal(oracle.Final) {
				t.Fatalf("%s seed %d: schedule driver and RunAsync oracle diverged", c.name, initSeed)
			}
			if res.Rounds != oracle.Sweeps {
				t.Fatalf("%s seed %d: driver took %d rounds, oracle %d sweeps", c.name, initSeed, res.Rounds, oracle.Sweeps)
			}
			if res.FixedPoint != oracle.FixedPoint || res.Monochromatic != oracle.Monochromatic {
				t.Fatalf("%s seed %d: verdicts diverged: %+v vs %+v", c.name, initSeed, res, oracle)
			}
		}
	}
}

// TestStochasticWorkerIndependence pins the core determinism contract: the
// same seeds produce bit-identical results whatever the worker count or
// forced scalar kernel, because every random draw is counter-based.
func TestStochasticWorkerIndependence(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 24, 24)
	eng := NewEngine(topo, rules.SMP{})
	for _, c := range stochasticCases() {
		if c.sched != nil && c.sched.inPlace() {
			continue // pinned to one worker by contract
		}
		initial := randomColoring(5, 24, 24, 4)
		base := eng.Run(initial, Options{
			Schedule: c.sched, Noise: c.noise, MaxRounds: 40, Target: 1,
		})
		variants := []Options{
			{Schedule: c.sched, Noise: c.noise, MaxRounds: 40, Target: 1, Parallel: true, Workers: 4},
			{Schedule: c.sched, Noise: c.noise, MaxRounds: 40, Target: 1, Kernel: KernelParallel, Workers: 3},
			{Schedule: c.sched, Noise: c.noise, MaxRounds: 40, Target: 1, Kernel: KernelSweep},
		}
		for i, opt := range variants {
			got := eng.Run(initial, opt)
			if !got.Final.Equal(base.Final) {
				t.Fatalf("%s variant %d: final configuration diverged", c.name, i)
			}
			if !reflect.DeepEqual(got.ChangesPerRound, base.ChangesPerRound) {
				t.Fatalf("%s variant %d: change trace diverged", c.name, i)
			}
			if !reflect.DeepEqual(got.FirstReached, base.FirstReached) || got.MonotoneTarget != base.MonotoneTarget {
				t.Fatalf("%s variant %d: target trace diverged", c.name, i)
			}
		}
	}
}

// TestStochasticCheckpointResume proves stochastic runs resume
// bit-identically: for every schedule × noise case, a run checkpointed at an
// interior round and resumed equals the uninterrupted run.
func TestStochasticCheckpointResume(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	eng := NewEngine(topo, rules.SMP{})
	for _, c := range stochasticCases() {
		initial := randomColoring(9, 16, 16, 4)
		opt := Options{Schedule: c.sched, Noise: c.noise, MaxRounds: 30, Target: 1, DetectCycles: true}
		full, err := eng.RunContext(context.Background(), initial, opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if full.Rounds < 4 {
			t.Fatalf("%s: run too short (%d rounds) to checkpoint mid-way", c.name, full.Rounds)
		}
		cutAt := full.Rounds / 2
		var cp *Resume
		for st, err := range eng.Stream(context.Background(), initial, opt) {
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if st.Round == cutAt {
				cp = st.Checkpoint()
				break
			}
		}
		if cp == nil {
			t.Fatalf("%s: never reached round %d", c.name, cutAt)
		}
		resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
		if err != nil {
			t.Fatalf("%s: resume: %v", c.name, err)
		}
		if !resumed.Final.Equal(full.Final) {
			t.Fatalf("%s: resumed final diverged from uninterrupted run", c.name)
		}
		if resumed.Rounds != full.Rounds || !reflect.DeepEqual(resumed.ChangesPerRound, full.ChangesPerRound) {
			t.Fatalf("%s: resumed trace diverged: %d/%v vs %d/%v", c.name, resumed.Rounds, resumed.ChangesPerRound, full.Rounds, full.ChangesPerRound)
		}
		if !reflect.DeepEqual(resumed.FirstReached, full.FirstReached) || resumed.MonotoneTarget != full.MonotoneTarget {
			t.Fatalf("%s: resumed target trace diverged", c.name)
		}
	}
}

// TestStochasticKernelGating pins the kernel contract of stochastic runs:
// incremental and (for in-place schedules) striped kernels are rejected with ErrStochasticSweepOnly, and so is the bitplane kernel under
// a schedule; under synchronous noise a forced bitplane run is accepted and
// equals the sweep.
func TestStochasticKernelGating(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomColoring(1, 8, 8, 2)
	sched := &Schedule{Kind: ScheduleUniformAsync, Seed: 1}
	noise := &Noise{Eps: 0.1, Colors: 2}
	for _, k := range []Kernel{KernelBitplane, KernelFrontier} {
		if _, err := eng.RunContext(context.Background(), initial, Options{Schedule: sched, Kernel: k}); !errors.Is(err, ErrStochasticSweepOnly) {
			t.Fatalf("kernel %v with schedule: err = %v, want ErrStochasticSweepOnly", k, err)
		}
		if k == KernelBitplane {
			continue
		}
		if _, err := eng.RunContext(context.Background(), initial, Options{Noise: noise, Kernel: k}); !errors.Is(err, ErrStochasticSweepOnly) {
			t.Fatalf("kernel %v with noise: err = %v, want ErrStochasticSweepOnly", k, err)
		}
	}
	bit, err := eng.RunContext(context.Background(), initial, Options{Noise: noise, Kernel: KernelBitplane, MaxRounds: 20, Target: 1})
	if err != nil {
		t.Fatalf("kernel bitplane with noise: %v", err)
	}
	sweep := eng.Run(initial, Options{Noise: noise, Kernel: KernelSweep, MaxRounds: 20, Target: 1})
	resultsEqual(t, "noisy bitplane vs sweep", bit, sweep)
	if bit.Kernel != KernelBitplane {
		t.Fatalf("forced noisy bitplane run recorded kernel %v", bit.Kernel)
	}
	if _, err := eng.RunContext(context.Background(), initial, Options{Schedule: &Schedule{Kind: ScheduleSequential}, Kernel: KernelParallel}); !errors.Is(err, ErrStochasticSweepOnly) {
		t.Fatalf("parallel sequential: err = %v, want ErrStochasticSweepOnly", err)
	}
	if _, err := eng.RunContext(context.Background(), initial, Options{Schedule: sched, TimeVarying: alwaysAvailable{}}); !errors.Is(err, ErrStochasticSweepOnly) {
		t.Fatalf("schedule+TV: err = %v, want ErrStochasticSweepOnly", err)
	}
}

type alwaysAvailable struct{}

func (alwaysAvailable) Available(round, u, v int) bool { return true }

// TestStochasticParamValidation rejects out-of-range schedule and noise
// parameters before any stepping happens.
func TestStochasticParamValidation(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomColoring(1, 4, 4, 2)
	bad := []Options{
		{Schedule: &Schedule{Kind: ScheduleUniformAsync, P: 1.5}},
		{Schedule: &Schedule{Kind: ScheduleUniformAsync, P: -0.2}},
		{Schedule: &Schedule{Kind: ScheduleUniformAsync, P: math.NaN()}},
		{Schedule: &Schedule{Kind: ScheduleVertexClock, Period: -1}},
		{Schedule: &Schedule{Kind: ScheduleKind(99)}},
		{Noise: &Noise{Eps: 1.5, Colors: 2}},
		{Noise: &Noise{Eps: -0.5, Colors: 2}},
		{Noise: &Noise{Eps: math.NaN(), Colors: 2}},
		{Noise: &Noise{Eps: 0.5, Colors: 0}},
	}
	for i, opt := range bad {
		if _, err := eng.RunContext(context.Background(), initial, opt); err == nil {
			t.Fatalf("case %d: invalid options %+v accepted", i, opt)
		}
	}
	// A nil-equivalent stochastic configuration stays on the deterministic
	// tiers: Eps == 0 noise and a synchronous schedule are inert.
	res := eng.Run(initial, Options{Schedule: &Schedule{}, Noise: &Noise{Eps: 0}})
	plain := eng.Run(initial, Options{})
	if !res.Final.Equal(plain.Final) || res.Kernel != plain.Kernel {
		t.Fatalf("inert stochastic options changed the run: %+v vs %+v", res, plain)
	}
}

// TestUniformAsyncFullProbabilityMatchesSynchronous checks the degenerate
// mask: P = 1 activates every vertex every round, reproducing the
// synchronous trajectory exactly (and keeping fixed-point stops).
func TestUniformAsyncFullProbabilityMatchesSynchronous(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 10, 10)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(10, 10, 1)
	sync := eng.Run(initial, Options{Kernel: KernelSweep})
	async := eng.Run(initial, Options{Schedule: &Schedule{Kind: ScheduleUniformAsync, P: 1, Seed: 3}})
	if !async.Final.Equal(sync.Final) || async.Rounds != sync.Rounds || !async.FixedPoint {
		t.Fatalf("P=1 uniform-async diverged from synchronous: %d rounds vs %d", async.Rounds, sync.Rounds)
	}
}

// TestNoisyRunDoesNotStopOnQuietRound: with Eps > 0 a zero-change round is
// not a fixed point — the run must keep going to its budget (or a
// monochromatic stop) because a later fault can reignite the dynamics.
func TestNoisyRunDoesNotStopOnQuietRound(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	eng := NewEngine(topo, rules.SMP{})
	// An all-1 configuration is a fixed point of SMP; under noise the run
	// must still burn its full budget.
	initial := randomColoring(1, 6, 6, 1)
	res := eng.Run(initial, Options{Noise: &Noise{Eps: 0.2, Colors: 2, Seed: 5}, MaxRounds: 25})
	if res.FixedPoint {
		t.Fatal("noisy run reported a fixed point")
	}
	if res.Rounds != 25 {
		t.Fatalf("noisy run stopped after %d rounds, want the full 25", res.Rounds)
	}
	changedEver := 0
	for _, c := range res.ChangesPerRound {
		changedEver += c
	}
	if changedEver == 0 {
		t.Fatal("eps=0.2 noise never flipped a vertex in 25 rounds of 36 cells")
	}
}

// TestVertexClockPeriodsCoverRange checks the clock derivation: over many
// vertices all periods {1..Period} and phases occur, and a vertex fires
// exactly once per period.
func TestVertexClockPeriodsCoverRange(t *testing.T) {
	s := Schedule{Kind: ScheduleVertexClock, Period: 4, Seed: 2}
	periods := map[int]bool{}
	for v := uint64(0); v < 256; v++ {
		fires := []uint64{}
		for round := uint64(1); round <= 24; round++ {
			if a := s.activation(round); a.active(rng.Key(v)) {
				fires = append(fires, round)
			}
		}
		if len(fires) == 0 {
			t.Fatalf("vertex %d never fired in 24 rounds under period cap 4", v)
		}
		// Consecutive firings are equally spaced: the vertex has a fixed
		// period in {1..4}.
		if len(fires) >= 2 {
			period := int(fires[1] - fires[0])
			if period < 1 || period > 4 {
				t.Fatalf("vertex %d fired with period %d outside {1..4}", v, period)
			}
			for i := 2; i < len(fires); i++ {
				if int(fires[i]-fires[i-1]) != period {
					t.Fatalf("vertex %d firing intervals are irregular: %v", v, fires)
				}
			}
			periods[period] = true
		}
	}
	for p := 1; p <= 4; p++ {
		if !periods[p] {
			t.Fatalf("no vertex drew period %d", p)
		}
	}
}

// TestNoisyConcurrentRunsRaceKeyBuild is a race-stress case for the
// engine's vertex keys: eight goroutines start noisy and masked-schedule
// runs on a fresh engine at once (bitplane, sequential and striped sweeps,
// the in-place schedule), so the first key build happens under concurrent
// runs, and every Result must equal the same run on a separate engine.
func TestNoisyConcurrentRunsRaceKeyBuild(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 24, 24)
	initial := randomTestColoring(4, topo.Dims(), 3)
	noise := &Noise{Eps: 0.05, Colors: 3, Seed: 8}
	base := Options{MaxRounds: 30, Target: 1, Noise: noise}
	opts := []Options{base, base, base, base, base, base, base, base}
	opts[1].Kernel = KernelSweep
	opts[2] = parallelOpts(base, 3)
	opts[3].Schedule = &Schedule{Kind: ScheduleUniformAsync, P: 0.5, Seed: 2}
	opts[4] = parallelOpts(opts[3], 2)
	opts[5].Schedule, opts[5].Noise = &Schedule{Kind: ScheduleVertexClock, Period: 3, Seed: 6}, nil
	opts[6] = parallelOpts(opts[5], 4)
	opts[7].Schedule = &Schedule{Kind: ScheduleRandomSequential, Seed: 1}
	ref := NewEngine(topo, rules.SMP{})
	eng := NewEngine(topo, rules.SMP{})
	got := make([]*Result, len(opts))
	var wg sync.WaitGroup
	for g := range opts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = eng.Run(initial, opts[g])
		}(g)
	}
	wg.Wait()
	if got[0].Kernel != KernelBitplane {
		t.Fatalf("auto noisy run took %v, want bitplane", got[0].Kernel)
	}
	for g, opt := range opts {
		resultBytesEqual(t, fmt.Sprintf("run %d", g), got[g], ref.Run(initial, opt))
	}
}

// TestStochasticBatchFallsBackFromBitslice: the bit-sliced batch tier has no
// stochastic form, so eligibility must reject stochastic options.
func TestStochasticBatchFallsBackFromBitslice(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	eng := NewEngine(topo, rules.SMP{})
	initials := []*color.Coloring{randomColoring(1, 8, 8, 2), randomColoring(2, 8, 8, 2)}
	if _, err := eng.RunBatchSliced(context.Background(), initials, Options{Schedule: &Schedule{Kind: ScheduleUniformAsync}}); !errors.Is(err, ErrBitsliceIneligible) {
		t.Fatalf("schedule: err = %v, want ErrBitsliceIneligible", err)
	}
	if _, err := eng.RunBatchSliced(context.Background(), initials, Options{Noise: &Noise{Eps: 0.1, Colors: 2}}); !errors.Is(err, ErrBitsliceIneligible) {
		t.Fatalf("noise: err = %v, want ErrBitsliceIneligible", err)
	}
}

// TestParseScheduleKindRoundTrip pins the wire names.
func TestParseScheduleKindRoundTrip(t *testing.T) {
	for _, k := range []ScheduleKind{ScheduleSynchronous, ScheduleUniformAsync, ScheduleSequential, ScheduleRandomSequential, ScheduleVertexClock} {
		got, err := ParseScheduleKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round-trip of %v: got %v, %v", k, got, err)
		}
	}
	if k, err := ParseScheduleKind(""); err != nil || k != ScheduleSynchronous {
		t.Fatalf("empty name: %v, %v", k, err)
	}
	if _, err := ParseScheduleKind("bogus"); err == nil {
		t.Fatal("bogus schedule name accepted")
	}
}

// flipRule swaps colors 1 and 2 at every application, whatever the
// neighbors say, so under any schedule that gives every vertex one turn
// per round the configuration repeats every two rounds.
type flipRule struct{}

func (flipRule) Name() string                                    { return "flip" }
func (flipRule) Next(c color.Color, _ []color.Color) color.Color { return 3 - c }

// TestSequentialScheduleDetectsCycle pins the period-2 trace of the
// sequential schedules' in-place round: under flipRule a raster-sequential
// run stops on the cycle at round 2, as the synchronous run does, also when
// resumed from a checkpoint taken after round 1.  A random-sequential run
// keeps no trace (a repeat two rounds apart is no cycle under a fresh sweep
// order each round) and runs to its budget.
func TestSequentialScheduleDetectsCycle(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 6)
	eng := NewEngine(topo, flipRule{})
	initial := randomTestColoring(1, topo.Dims(), 2)
	for _, c := range []struct {
		name   string
		sched  *Schedule
		rounds int
		cycle  bool
	}{
		{"synchronous", nil, 2, true},
		{"sequential", &Schedule{Kind: ScheduleSequential}, 2, true},
		{"random-sequential", &Schedule{Kind: ScheduleRandomSequential, Seed: 1}, 10, false},
	} {
		opt := Options{Schedule: c.sched, DetectCycles: true, MaxRounds: 10}
		res := eng.Run(initial, opt)
		if res.Rounds != c.rounds || res.Cycle != c.cycle || !res.Final.Equal(initial) {
			t.Errorf("%s: rounds %d cycle %v back at the initial coloring %v, want rounds %d cycle %v",
				c.name, res.Rounds, res.Cycle, res.Final.Equal(initial), c.rounds, c.cycle)
		}
		resumed, err := drainStream(eng.StreamFrom(context.Background(), checkpointAt(t, eng, initial, opt, 1), opt))
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, c.name+"/resumed", resumed, res)
	}
}
