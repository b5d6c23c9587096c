package sim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// randomTestColoring builds a reproducible random coloring over k colors.
func randomTestColoring(seed uint64, d grid.Dims, k int) *color.Coloring {
	src := rng.New(seed)
	p := color.MustPalette(k)
	return color.RandomColoring(d, p, func() int { return src.Intn(p.K) })
}

// resultsEqual compares every field of two Results that the steppers must
// agree on, reporting the first difference.
func resultsEqual(t *testing.T, label string, a, b *Result) {
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

// TestSteppersBitIdenticalAllRulesAllTopologies is the differential oracle
// of the frontier rebuild: on every registered rule × topology kind pair
// (aliases included), over random colorings on several sizes including the
// degenerate 2×n and m×2 tori, the frontier, sequential full-sweep and
// striped-parallel steppers must produce bit-identical Results — same
// rounds, same per-round change counts, same verdicts, same final
// configuration, same first-reach trace.  The palettes run from one color
// to nine: the frontier and the stripes look colors up in the rule table,
// which covers colors up to 8, and the full sweep never does.
func TestSteppersBitIdenticalAllRulesAllTopologies(t *testing.T) {
	sizes := [][2]int{{2, 2}, {2, 7}, {7, 2}, {3, 3}, {4, 6}, {6, 6}}
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for _, k := range []int{1, 2, 5, 8, 9} {
					for seed := uint64(1); seed <= 3; seed++ {
						initial := randomTestColoring(seed, topo.Dims(), k)
						// Bounded rounds: reversible rules may never settle.
						base := Options{MaxRounds: 40, Target: 1, DetectCycles: true}
						front := base
						front.Kernel = KernelFrontier
						sweep := base
						sweep.Kernel = KernelSweep
						par := base
						par.Parallel, par.Workers = true, 3

						oracle := eng.Run(initial, sweep)
						label := fmt.Sprintf("%s/%s/%v/k=%d", name, topo.Name(), topo.Dims(), k)
						resultsEqual(t, label+"/frontier-vs-sweep", eng.Run(initial, front), oracle)
						resultsEqual(t, label+"/parallel-vs-sweep", eng.Run(initial, par), oracle)
					}
				}
			}
		}
	}
}

// TestFrontierMatchesSweepWithStops runs the stop-condition variants
// (monochromatic stop, no cycle detection, history recording) differentially
// on a dynamo-style cross seed where the run actually converges.
func TestFrontierMatchesSweepWithStops(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(9, 9, 1)

	for _, opt := range []Options{
		{Target: 1, StopWhenMonochromatic: true},
		{RecordHistory: true},
		{},
	} {
		sweep := opt
		sweep.Kernel = KernelSweep
		front := eng.Run(initial, opt)
		oracle := eng.Run(initial, sweep)
		resultsEqual(t, "cross", front, oracle)
		if opt.RecordHistory {
			if len(front.History) != len(oracle.History) {
				t.Fatalf("history length %d vs %d", len(front.History), len(oracle.History))
			}
			for i := range front.History {
				if !front.History[i].Equal(oracle.History[i]) {
					t.Fatalf("history[%d] differs", i)
				}
			}
		}
	}
}

// oscillator2 plants the localized period-2 seed of the Prefer-Black rule:
// two diagonal black cells in a white sea swap with their anti-diagonal
// every round, forever, while the rest of the torus stays fixed.
func oscillator2(d grid.Dims, row, col int, white, black color.Color) *color.Coloring {
	c := color.NewColoring(d, white)
	c.SetRC(row, col, black)
	c.SetRC(row+1, col+1, black)
	return c
}

// TestFrontierSurvivesOscillation pins the frontier's liveness on a period-2
// cycle: with cycle detection off, the dirty frontier must keep scheduling
// the oscillating cells every round up to the budget (it must not die out
// just because the configuration revisits earlier states), and with cycle
// detection on it must stop exactly when the sweep oracle does.
func TestFrontierSurvivesOscillation(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	rule := rules.SimpleMajorityPB{Black: 2}
	eng := NewEngine(topo, rule)
	initial := oscillator2(topo.Dims(), 5, 5, 1, 2)

	const budget = 50
	free := eng.Run(initial, Options{MaxRounds: budget})
	if free.Rounds != budget {
		t.Fatalf("oscillating run stopped at round %d, want the full budget %d", free.Rounds, budget)
	}
	if free.FixedPoint || free.Cycle {
		t.Fatalf("oscillating run misreported fixedpoint=%v cycle=%v", free.FixedPoint, free.Cycle)
	}
	for i, ch := range free.ChangesPerRound {
		if ch == 0 {
			t.Fatalf("frontier died at round %d while the configuration was still oscillating", i+1)
		}
	}

	detect := eng.Run(initial, Options{MaxRounds: budget, DetectCycles: true})
	sweep := eng.Run(initial, Options{MaxRounds: budget, DetectCycles: true, Kernel: KernelSweep})
	resultsEqual(t, "oscillator", detect, sweep)
	if !detect.Cycle || detect.Rounds != 2 {
		t.Fatalf("period-2 cycle not detected at round 2: cycle=%v rounds=%d", detect.Cycle, detect.Rounds)
	}

	// Drive the frontier by hand and watch its width stay localized: after
	// round 1 only the 2 changed cells plus their read sets stay dirty.
	f := eng.NewFrontier(initial)
	f.Step()
	if w := len(f.queue); w == 0 || w > 20 {
		t.Fatalf("frontier width %d after round 1, want small and non-zero", w)
	}
	for i := 0; i < 10; i++ {
		if f.Step() == 0 {
			t.Fatalf("manual frontier died at round %d", f.round)
		}
	}
	if !f.Cycle() {
		t.Error("manual frontier failed to flag the period-2 cycle")
	}
}

// TestOneByNRejected documents the engine's floor: the paper (and
// grid.NewDims) require m, n ≥ 2, so 1×n "tori" are rejected at
// construction rather than mis-simulated — every vertex would be its own
// neighbor twice.
func TestOneByNRejected(t *testing.T) {
	for _, kind := range grid.Kinds() {
		if _, err := grid.New(kind, 1, 8); err == nil {
			t.Errorf("%v: 1×8 construction unexpectedly succeeded", kind)
		}
		if _, err := grid.New(kind, 8, 1); err == nil {
			t.Errorf("%v: 8×1 construction unexpectedly succeeded", kind)
		}
	}
}

// cancelAtRound is an Observer that cancels a context after seeing the
// given round.
type cancelAtRound struct {
	round  int
	cancel context.CancelFunc
}

func (c *cancelAtRound) OnRound(round int, _ *color.Coloring) {
	if round == c.round {
		c.cancel()
	}
}
func (c *cancelAtRound) OnFinish(*Result) {}

// TestFrontierCancellationMidRun cancels a frontier run from an observer and
// checks the partial result against the sweep oracle canceled at the same
// round: same rounds executed, same partial configuration, ctx.Err()
// surfaced, no OnFinish delivered.
func TestFrontierCancellationMidRun(t *testing.T) {
	topo := grid.MustNew(grid.KindTorusCordalis, 12, 12)
	eng := NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
	initial := randomTestColoring(11, topo.Dims(), 3)

	runCanceled := func(kernel Kernel) (*Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		obs := &cancelAtRound{round: 3, cancel: cancel}
		return eng.RunContext(ctx, initial, Options{
			MaxRounds: 100, Kernel: kernel, Observers: []Observer{obs},
		})
	}
	front, errF := runCanceled(KernelAuto)
	sweep, errS := runCanceled(KernelSweep)
	if errF != context.Canceled || errS != context.Canceled {
		t.Fatalf("errors %v / %v, want context.Canceled", errF, errS)
	}
	if front.Rounds != 3 || sweep.Rounds != 3 {
		t.Fatalf("rounds %d / %d, want 3 (canceled at the round-4 boundary)", front.Rounds, sweep.Rounds)
	}
	if !front.Final.Equal(sweep.Final) {
		t.Fatal("partial configurations differ between frontier and sweep")
	}
}

// TestFrontierStepDoesNotAllocate pins the zero-allocation guarantee of
// steady-state stepping for both the frontier and the sweep fast path.
func TestFrontierStepDoesNotAllocate(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 64, 64)
	eng := NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
	initial := oscillator2(topo.Dims(), 20, 20, 1, 2)

	f := eng.NewFrontier(initial)
	f.Step()
	f.Step()
	if allocs := testing.AllocsPerRun(200, func() { f.Step() }); allocs != 0 {
		t.Errorf("Frontier.Step allocates %.1f objects per round in steady state, want 0", allocs)
	}

	cur, next := initial.Clone(), initial.Clone()
	if allocs := testing.AllocsPerRun(50, func() {
		eng.Step(cur, next)
		cur, next = next, cur
	}); allocs != 0 {
		t.Errorf("Engine.Step allocates %.1f objects per round, want 0", allocs)
	}
}

// TestRunReusesPooledBuffers checks that a run on a warm engine, stepping on
// the pooled working buffers an earlier run returned, matches the first run
// of a newly built engine.
func TestRunReusesPooledBuffers(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 48, 48)
	eng := NewEngine(topo, rules.SMP{})
	initial := crossColoring(48, 48, 1)
	opt := Options{StopWhenMonochromatic: true}

	eng.Run(initial, opt)
	warm := eng.Run(initial, opt)
	cold := NewEngine(topo, rules.SMP{}).Run(initial, opt)
	if !warm.Final.Equal(cold.Final) || warm.Rounds != cold.Rounds {
		t.Fatal("the warm engine's pooled run diverged from a new engine's first run")
	}
}

// TestDefaultMaxRoundsMatchesPaperBounds pins the budget formula and checks
// it dominates the paper's convergence bounds (Theorems 7 and 8) with at
// least 2× slack on a sweep of sizes, so the documented "O(m·n) slack"
// claim is actually true of the returned value.
func TestDefaultMaxRoundsMatchesPaperBounds(t *testing.T) {
	ceilDiv := func(a, b int) int { return (a + b - 1) / b }
	// Theorem 7 (toroidal mesh) and Theorem 8 (spiral tori, row-seeded).
	theorem7 := func(m, n int) int {
		a, b := ceilDiv(n-1, 2)-1, ceilDiv(m-1, 2)-1
		if b > a {
			a = b
		}
		return 2*a + 1
	}
	theorem8 := func(m, n int) int {
		base := ((m-1)/2 - 1) * n
		if m%2 == 1 {
			return base + ceilDiv(n, 2)
		}
		return base + 1
	}
	for m := 2; m <= 40; m += 3 {
		for n := 2; n <= 40; n += 3 {
			d := grid.MustDims(m, n)
			got := DefaultMaxRounds(d)
			if want := m*n + 2*(m+n) + 16; got != want {
				t.Fatalf("DefaultMaxRounds(%v) = %d, want %d", d, got, want)
			}
			for _, bound := range []int{theorem7(m, n), theorem8(m, n), theorem8(n, m)} {
				if got < 2*bound {
					t.Errorf("DefaultMaxRounds(%v) = %d is below 2× the paper bound %d", d, got, bound)
				}
			}
		}
	}
}
