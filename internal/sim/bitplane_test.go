package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// TestBitplaneBitIdenticalAllRulesAllTopologies is the differential oracle
// of the bitplane tier (the acceptance bar of the bit-sliced rebuild): on
// every registered rule × topology kind pair, over seeded random colorings
// across palette sizes 2..4 and sizes including the 2×n degenerates and
// non-word-multiple row lengths, a forced-bitplane run must produce a
// Result bit-identical to the forced full-sweep oracle — same rounds, same
// per-round change counts, same verdicts, same final configuration, same
// first-reach trace.  Combinations that do not qualify (rules without a
// kernel) are skipped, but the core pairs must qualify.
func TestBitplaneBitIdenticalAllRulesAllTopologies(t *testing.T) {
	sizes := [][2]int{{2, 2}, {2, 7}, {7, 2}, {3, 3}, {4, 6}, {3, 67}, {9, 9}}
	qualified := 0
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for _, k := range []int{2, 3, 4} {
					for seed := uint64(1); seed <= 2; seed++ {
						initial := randomTestColoring(seed, topo.Dims(), k)
						base := Options{MaxRounds: 40, Target: 1, DetectCycles: true}
						bit := base
						bit.Kernel = KernelBitplane
						sweep := base
						sweep.Kernel = KernelSweep

						bitRes, err := eng.RunContext(context.Background(), initial, bit)
						if err != nil {
							if errors.Is(err, ErrBitplaneIneligible) {
								continue
							}
							t.Fatal(err)
						}
						qualified++
						oracle := eng.Run(initial, sweep)
						label := name + "/" + topo.Name() + "/" + topo.Dims().String()
						resultsEqual(t, label+"/bitplane-vs-sweep", bitRes, oracle)
						if bitRes.Kernel != KernelBitplane || oracle.Kernel != KernelSweep {
							t.Fatalf("%s: kernels recorded as %v / %v", label, bitRes.Kernel, oracle.Kernel)
						}
					}
				}
			}
		}
	}
	// All three paper tori are shift-regular and six rules ship kernels, so
	// the skip branch must not have swallowed the matrix.
	if qualified < 500 {
		t.Fatalf("only %d qualifying combinations exercised, expected the full matrix", qualified)
	}
}

// TestBitplaneAutoHybridMatchesOracle pins the downshift handoff: an
// auto-tier sequential run that starts on the bitplane kernel and hands off
// to the dirty frontier mid-run must match the full-sweep oracle exactly —
// including the round count, the cycle verdict and the first-reach trace
// across the switch boundary.
func TestBitplaneAutoHybridMatchesOracle(t *testing.T) {
	t.Run("oscillator", func(t *testing.T) {
		// A period-2 Prefer-Black oscillator: two diagonal cells trading
		// places with their anti-diagonal forever.  Churn is 4 cells on a
		// 32×32 torus, far below the downshift threshold, and with cycle
		// detection off the run crosses the handoff and keeps oscillating on
		// the frontier until the round budget.
		topo := grid.MustNew(grid.KindToroidalMesh, 32, 32)
		eng := NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
		initial := color.NewColoring(topo.Dims(), 1)
		initial.SetRC(10, 10, 2)
		initial.SetRC(11, 11, 2)

		opt := Options{MaxRounds: 60, Target: 2}
		auto := eng.Run(initial, opt)
		sweep := opt
		sweep.Kernel = KernelSweep
		oracle := eng.Run(initial, sweep)
		resultsEqual(t, "oscillator/auto-vs-sweep", auto, oracle)
		if auto.Kernel != KernelBitplane {
			t.Fatalf("auto run used %v, want bitplane", auto.Kernel)
		}
		if auto.Downshift == 0 {
			t.Fatal("low-churn oscillator never downshifted to the frontier")
		}
	})
	t.Run("converging-dynamo", func(t *testing.T) {
		// A Prefer-Black cross: bootstrap percolation fills the torus
		// diagonally, so churn decays as the wave closes and the run
		// crosses the downshift threshold before going monochromatic.
		topo := grid.MustNew(grid.KindToroidalMesh, 24, 24)
		eng := NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
		initial := color.NewColoring(topo.Dims(), 1)
		for j := 0; j < 24; j++ {
			initial.SetRC(0, j, 2)
		}
		for i := 0; i < 24; i++ {
			initial.SetRC(i, 0, 2)
		}
		opt := Options{Target: 2, StopWhenMonochromatic: true}
		auto := eng.Run(initial, opt)
		sweep := opt
		sweep.Kernel = KernelSweep
		oracle := eng.Run(initial, sweep)
		resultsEqual(t, "dynamo/auto-vs-sweep", auto, oracle)
		if !auto.Monochromatic || auto.FinalColor != 2 {
			t.Fatal("black cross failed to fill the torus")
		}
		if auto.Downshift == 0 {
			t.Fatal("decaying-churn dynamo never downshifted to the frontier")
		}
	})
}

// TestFrontierSeedFromBitplaneCycleHandoff drives the downshift's handoff by
// hand and checks that the frontier, seeded through seedFromCheckpoint from
// the bitplane's last two configurations, detects a period-2 cycle that
// straddles the handoff at exactly the same round as the oracle — the
// subtlest part of the hybrid's exactness.
func TestFrontierSeedFromBitplaneCycleHandoff(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	eng := NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
	initial := color.NewColoring(topo.Dims(), 1)
	initial.SetRC(5, 5, 2)
	initial.SetRC(6, 6, 2)

	// One bitplane round, then hand off: the configuration now equals the
	// anti-diagonal phase, and round 2 must flip it straight back — a cycle
	// the frontier can only see through the journal its seed rebuilt.
	st := eng.getState()
	defer eng.putState(st)
	opt := Options{DetectCycles: true}
	bd, err := eng.newBitplaneDriver(st, initial, opt, nil, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if changed := bd.stepRound(1, &Result{}, opt); changed == 0 {
		t.Fatal("oscillator died on the bitplane")
	}
	fd := bd.handoff()
	f := fd.f
	if f.round != 1 {
		t.Fatalf("seeded frontier at round %d, want 1", f.round)
	}
	if prev := fd.prevConfig(); prev == nil || !prev.Equal(initial) {
		t.Fatal("the handoff lost the previous configuration")
	}
	if changed := f.Step(); changed == 0 {
		t.Fatal("oscillator died on the frontier")
	}
	if !f.Cycle() {
		t.Fatal("frontier missed the period-2 cycle across the handoff")
	}
	// And the configuration trajectory must match the sweep oracle.
	cur, next := initial.Clone(), initial.Clone()
	eng.Step(cur, next)
	eng.Step(next, cur)
	if !f.cfg.Equal(cur) {
		t.Fatal("handoff diverged from the sweep trajectory")
	}
}

// handoverAt is a bitplane driver whose downshift fires after round at,
// whatever the churn, through the downshift's own handoff.
type handoverAt struct {
	*bitplaneDriver
	at     int
	handed *bool
}

func (d handoverAt) downshift(round, _, _ int, _ *Result) runDriver {
	if round != d.at {
		return nil
	}
	*d.handed = true
	return d.handoff()
}

// TestDownshiftHandoffEveryRoundMatchesOracle hands short bitplane runs over
// to the frontier after every round 1..R-1 of the oracle's R rounds and
// requires the KernelSweep oracle's Result bytes: every rule with a
// word-parallel kernel, on the three tori (a 2×n one included), with 2–4
// colors, a tracked target and cycle detection on.
func TestDownshiftHandoffEveryRoundMatchesOracle(t *testing.T) {
	sizes := [][2]int{{2, 9}, {6, 7}, {9, 9}}
	handoffs := 0
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rule.(rules.BitRule); !ok {
			continue
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for k := 2; k <= 4; k++ {
					initial := randomTestColoring(uint64(10*k+sz[0]), topo.Dims(), k)
					opt := Options{MaxRounds: 12, Target: 1, DetectCycles: true}
					oracle := opt
					oracle.Kernel = KernelSweep
					ref := eng.Run(initial, oracle)
					want, err := json.Marshal(ref)
					if err != nil {
						t.Fatal(err)
					}
					for at := 1; at < ref.Rounds; at++ {
						label := fmt.Sprintf("%s/%s-%dx%d/k=%d/handoff-after-%d", name, kind, sz[0], sz[1], k, at)
						res, ok := runHandingOverAt(t, eng, initial, opt, at)
						if !ok {
							continue // no word-parallel kernel for this palette
						}
						got, err := json.Marshal(res)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("%s: Result differs from the sweep oracle\n got: %s\nwant: %s", label, got, want)
						}
						handoffs++
					}
				}
			}
		}
	}
	if handoffs == 0 {
		t.Fatal("no run handed over")
	}
}

// runHandingOverAt runs initial on the bitplane tier as streamRun would,
// handing over to the frontier after round at; ok is false when the run has
// no bitplane form.
func runHandingOverAt(t *testing.T, eng *Engine, initial *color.Coloring, opt Options, at int) (res *Result, ok bool) {
	t.Helper()
	st := eng.getState()
	defer eng.putState(st)
	bd, err := eng.newBitplaneDriver(st, initial, opt, nil, 1, false)
	if errors.Is(err, ErrBitplaneIneligible) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	maxRounds, handed := opt.MaxRounds, false
	res = initRunResult(bd, &Resume{Config: initial}, opt, 1, KernelBitplane, &maxRounds, true)
	res, err = eng.drive(context.Background(), handoverAt{bd, at, &handed}, res, opt, 1, maxRounds, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !handed {
		t.Fatalf("the run never handed over after round %d", at)
	}
	return res, true
}

// TestBitplaneParallelStripesMatchSequential forces the bitplane tier with
// worker striping and requires bit-identity with the sequential bitplane
// and the oracle.
func TestBitplaneParallelStripesMatchSequential(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 17, 29)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(3, topo.Dims(), 4)
	base := Options{MaxRounds: 50, Target: 1, DetectCycles: true, Kernel: KernelBitplane}
	seq := eng.Run(initial, base)
	par := base
	par.Parallel, par.Workers = true, 4
	striped := eng.Run(initial, par)
	resultsEqual(t, "bitplane/striped-vs-sequential", seq, striped)
	if striped.Workers != 4 {
		t.Fatalf("striped bitplane run reports %d workers, want 4", striped.Workers)
	}
}

// TestBitplaneStepMatchesEngineStepRoundByRound drives the public Bitplane
// API by hand against the scalar Step oracle.
func TestBitplaneStepMatchesEngineStepRoundByRound(t *testing.T) {
	for _, kind := range grid.Kinds() {
		topo := grid.MustNew(kind, 6, 11)
		eng := NewEngine(topo, rules.SMP{})
		cur := randomTestColoring(9, topo.Dims(), 4)
		bp, err := eng.NewBitplane(cur)
		if err != nil {
			t.Fatal(err)
		}
		next := color.NewColoring(topo.Dims(), color.None)
		for round := 1; round <= 25; round++ {
			wantChanged := eng.Step(cur, next)
			gotChanged := bp.Step()
			if gotChanged != wantChanged {
				t.Fatalf("%v round %d: bitplane changed %d, sweep %d", kind, round, gotChanged, wantChanged)
			}
			if !bp.Config().Equal(next) {
				t.Fatalf("%v round %d: configurations diverged", kind, round)
			}
			cur, next = next, cur
		}
		if bp.round != 25 {
			t.Fatalf("round counter = %d, want 25", bp.round)
		}
	}
}

// TestBitplaneStepDoesNotAllocate pins the zero-allocation guarantee of
// steady-state bit-sliced stepping, with and without cycle tracking.
func TestBitplaneStepDoesNotAllocate(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 32, 32)
	eng := NewEngine(topo, rules.SMP{})
	bp, err := eng.NewBitplane(randomTestColoring(5, topo.Dims(), 2))
	if err != nil {
		t.Fatal(err)
	}
	bp.DetectCycles(true)
	bp.Step()
	if allocs := testing.AllocsPerRun(100, func() { bp.Step() }); allocs != 0 {
		t.Fatalf("bitplane step allocates %.1f objects per op, want 0", allocs)
	}
}

// TestBitplaneIneligibility covers every refusal reason and the forced-tier
// error contract.
func TestBitplaneIneligibility(t *testing.T) {
	mesh := grid.MustNew(grid.KindToroidalMesh, 6, 6)

	// Rule without a kernel.
	incEng := NewEngine(mesh, rules.Increment{K: 4})
	if _, err := incEng.NewBitplane(randomTestColoring(1, mesh.Dims(), 4)); !errors.Is(err, ErrBitplaneIneligible) {
		t.Fatalf("increment rule: err = %v, want ErrBitplaneIneligible", err)
	}

	// Palette beyond four colors.
	smpEng := NewEngine(mesh, rules.SMP{})
	if _, err := smpEng.NewBitplane(randomTestColoring(1, mesh.Dims(), 5)); !errors.Is(err, ErrBitplaneIneligible) {
		t.Fatalf("five colors: err = %v, want ErrBitplaneIneligible", err)
	}

	// Unset cells.
	holey := color.NewColoring(mesh.Dims(), 1)
	holey.Set(7, color.None)
	if _, err := smpEng.NewBitplane(holey); !errors.Is(err, ErrBitplaneIneligible) {
		t.Fatalf("None cell: err = %v, want ErrBitplaneIneligible", err)
	}

	// Forced tier surfaces the error through RunContext; Run panics.
	opt := Options{Kernel: KernelBitplane}
	if res, err := smpEng.RunContext(context.Background(), randomTestColoring(1, mesh.Dims(), 5), opt); res != nil || !errors.Is(err, ErrBitplaneIneligible) {
		t.Fatalf("forced bitplane on 5 colors: res=%v err=%v", res, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run with an ineligible forced kernel must panic")
			}
		}()
		smpEng.Run(randomTestColoring(1, mesh.Dims(), 5), opt)
	}()

	// Auto selection silently falls back for the same coloring.
	res := smpEng.Run(randomTestColoring(1, mesh.Dims(), 5), Options{MaxRounds: 5})
	if res.Kernel != KernelFrontier {
		t.Fatalf("auto on 5 colors used %v, want frontier fallback", res.Kernel)
	}
}

// TestResultKernelRecorded pins the tier telemetry for every selection path.
func TestResultKernelRecorded(t *testing.T) {
	mesh := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	eng := NewEngine(mesh, rules.SMP{})
	twoColor := randomTestColoring(2, mesh.Dims(), 2)
	fiveColor := randomTestColoring(2, mesh.Dims(), 5)

	cases := []struct {
		name    string
		initial *color.Coloring
		opt     Options
		want    Kernel
	}{
		{"auto-bitplane", twoColor, Options{MaxRounds: 3}, KernelBitplane},
		{"auto-frontier", fiveColor, Options{MaxRounds: 3}, KernelFrontier},
		{"auto-history-frontier", twoColor, Options{MaxRounds: 3, RecordHistory: true}, KernelFrontier},
		{"auto-sweep", fiveColor, Options{MaxRounds: 3, TimeVarying: alwaysAvailable{}}, KernelSweep},
		{"auto-parallel", fiveColor, Options{MaxRounds: 3, Parallel: true, Workers: 2}, KernelParallel},
		{"forced-frontier", twoColor, Options{MaxRounds: 3, Kernel: KernelFrontier}, KernelFrontier},
		{"forced-sweep", twoColor, Options{MaxRounds: 3, Kernel: KernelSweep}, KernelSweep},
		{"forced-parallel", twoColor, Options{MaxRounds: 3, Workers: 2, Kernel: KernelParallel}, KernelParallel},
		// A forced parallel tier reports parallel even when the effective
		// worker count degenerates to one (single-CPU machines).
		{"forced-parallel-one-worker", twoColor, Options{MaxRounds: 3, Workers: 1, Kernel: KernelParallel}, KernelParallel},
		{"forced-bitplane", twoColor, Options{MaxRounds: 3, Kernel: KernelBitplane}, KernelBitplane},
	}
	for _, c := range cases {
		res := eng.Run(c.initial, c.opt)
		if res.Kernel != c.want {
			t.Errorf("%s: Kernel = %v, want %v", c.name, res.Kernel, c.want)
		}
	}
}

// TestBitplaneObserversAndHistoryOnForcedTier: a forced bitplane run must
// still honor observers and history by unpacking per round, matching the
// oracle's views exactly.
func TestBitplaneObserversAndHistoryOnForcedTier(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(4, topo.Dims(), 3)

	opt := Options{MaxRounds: 15, RecordHistory: true}
	bit := opt
	bit.Kernel = KernelBitplane
	sweep := opt
	sweep.Kernel = KernelSweep

	bitRes := eng.Run(initial, bit)
	oracle := eng.Run(initial, sweep)
	if len(bitRes.History) != len(oracle.History) {
		t.Fatalf("history length %d vs %d", len(bitRes.History), len(oracle.History))
	}
	for i := range bitRes.History {
		if !bitRes.History[i].Equal(oracle.History[i]) {
			t.Fatalf("history round %d differs", i+1)
		}
	}
}

// TestBitplaneNoisyMatchesSweep is the differential oracle of ε-faulty runs
// on the bitplane tier: on every rule with a kernel × the three tori
// (including the 2×n degenerates and a multi-word 3×67) × palettes 2..4 ×
// fault rates from rare to certain, the auto-selected bitplane run —
// sequential and striped — must equal the forced scalar sweep in every
// Result field, and must never hand off to the frontier (which has no
// stochastic form).
func TestBitplaneNoisyMatchesSweep(t *testing.T) {
	sizes := [][2]int{{2, 7}, {7, 2}, {3, 67}, {9, 9}}
	qualified := 0
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rule.(rules.BitRule); !ok {
			continue
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for _, k := range []int{2, 3, 4} {
					initial := randomTestColoring(uint64(k), topo.Dims(), k)
					for _, eps := range []float64{0.01, 0.5, 1} {
						noise := &Noise{Eps: eps, Colors: k, Seed: uint64(k)*31 + uint64(sz[1])}
						base := Options{Noise: noise, MaxRounds: 30, Target: 1, StopWhenMonochromatic: true, DetectCycles: true}
						sweep := base
						sweep.Kernel = KernelSweep
						oracle := eng.Run(initial, sweep)
						for _, workers := range []int{1, 4} {
							opt := base
							opt.Parallel, opt.Workers = workers > 1, workers
							got := eng.Run(initial, opt)
							label := fmt.Sprintf("%s/%s/%v/k%d/eps%v/w%d", name, topo.Name(), topo.Dims(), k, eps, workers)
							if got.Kernel != KernelBitplane {
								if _, ok := rule.(rules.BitRule).BitKernel(k); ok {
									t.Fatalf("%s: noisy run took the %v tier", label, got.Kernel)
								}
								continue
							}
							qualified++
							resultsEqual(t, label, got, oracle)
							if got.Downshift != 0 {
								t.Fatalf("%s: noisy run downshifted at round %d", label, got.Downshift)
							}
						}
					}
				}
			}
		}
	}
	if qualified < 500 {
		t.Fatalf("only %d noisy bitplane runs exercised, expected the full matrix", qualified)
	}
}

// TestBitplaneNoisyPalette: faults draw from {1..Noise.Colors}, which may
// exceed the colors of the initial configuration, so the planes must cover
// the noise palette; a noise palette beyond four colors keeps auto runs on
// the sweep and refuses a forced bitplane run.
func TestBitplaneNoisyPalette(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 12, 13)
	eng := NewEngine(topo, rules.SMP{})
	for _, colors := range []int{2, 3, 4} {
		for _, initK := range []int{1, 2} {
			if initK >= colors {
				continue
			}
			initial := randomTestColoring(7, topo.Dims(), initK)
			noise := &Noise{Eps: 0.2, Colors: colors, Seed: 5}
			opt := Options{Noise: noise, MaxRounds: 25, Target: 1}
			got := eng.Run(initial, opt)
			opt.Kernel = KernelSweep
			want := eng.Run(initial, opt)
			label := fmt.Sprintf("init k=%d noise k=%d", initK, colors)
			if got.Kernel != KernelBitplane {
				t.Fatalf("%s: auto run took the %v tier", label, got.Kernel)
			}
			resultsEqual(t, label, got, want)
			if c := maxColor(got.Final); int(c) != colors {
				t.Fatalf("%s: final coloring tops out at color %d, want the noise palette's %d", label, c, colors)
			}
		}
	}
	initial := randomTestColoring(7, topo.Dims(), 2)
	wide := Options{Noise: &Noise{Eps: 0.2, Colors: 5, Seed: 5}, MaxRounds: 10}
	if res := eng.Run(initial, wide); res.Kernel == KernelBitplane {
		t.Fatal("a 5-color noise palette ran on the bitplane tier")
	}
	wide.Kernel = KernelBitplane
	if _, err := eng.RunContext(context.Background(), initial, wide); !errors.Is(err, ErrBitplaneIneligible) {
		t.Fatalf("forced bitplane with a 5-color noise palette: err = %v, want ErrBitplaneIneligible", err)
	}
}

func maxColor(c *color.Coloring) color.Color {
	var top color.Color
	for _, x := range c.Cells() {
		top = max(top, x)
	}
	return top
}

// TestBitplaneNoisyCheckpointResume: a checkpoint taken mid-run on the
// noisy bitplane tier resumes on the scalar path (a checkpoint carries
// scalar state only) and finishes exactly like the uninterrupted run.
func TestBitplaneNoisyCheckpointResume(t *testing.T) {
	topo := grid.MustNew(grid.KindTorusCordalis, 16, 20)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(3, topo.Dims(), 3)
	for _, workers := range []int{1, 4} {
		opt := Options{Noise: &Noise{Eps: 0.05, Colors: 3, Seed: 9}, MaxRounds: 40, Target: 1, Parallel: workers > 1, Workers: workers}
		full := eng.Run(initial, opt)
		if full.Kernel != KernelBitplane {
			t.Fatalf("workers=%d: uninterrupted run took the %v tier", workers, full.Kernel)
		}
		cp := checkpointAt(t, eng, initial, opt, 17)
		resumed, err := drainStream(eng.StreamFrom(context.Background(), cp, opt))
		if err != nil {
			t.Fatal(err)
		}
		if resumed.Kernel == KernelBitplane {
			t.Fatalf("workers=%d: resumed run stayed on the bitplane tier", workers)
		}
		resultsEqual(t, fmt.Sprintf("workers=%d resumed vs uninterrupted", workers), resumed, full)
	}
}

// TestBitplaneNoisyStepDoesNotAllocate pins the zero-allocation steady
// state with the fault pass on, sequential and striped.
func TestBitplaneNoisyStepDoesNotAllocate(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 64, 64)
	eng := NewEngine(topo, rules.SMP{})
	bp, err := eng.NewBitplane(randomTestColoring(5, topo.Dims(), 2))
	if err != nil {
		t.Fatal(err)
	}
	bp.noise, bp.keys = &Noise{Eps: 0.01, Colors: 2, Seed: 1}, eng.vertexKeys()
	bp.Step()
	if allocs := testing.AllocsPerRun(100, func() { bp.Step() }); allocs != 0 {
		t.Fatalf("noisy bitplane step allocates %.1f objects per op, want 0", allocs)
	}
	st := eng.getState()
	defer eng.putState(st)
	bp.stepStriped(st, 2)
	if allocs := testing.AllocsPerRun(100, func() { bp.stepStriped(st, 2) }); allocs != 0 {
		t.Fatalf("striped noisy bitplane step allocates %.1f objects per op, want 0", allocs)
	}
}
