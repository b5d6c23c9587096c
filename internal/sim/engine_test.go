package sim

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// crossColoring builds the Figure-5 style configuration on an m×n mesh:
// row 0 and column 0 carry color k, the rest of the torus is padded with a
// 3-color row cycle so that no vertex sees two equal non-k colors.
func crossColoring(m, n int, k color.Color) *color.Coloring {
	c := color.NewColoring(grid.MustDims(m, n), color.None)
	pad := []color.Color{k + 1, k + 2, k + 3}
	for i := 1; i < m; i++ {
		for j := 1; j < n; j++ {
			c.SetRC(i, j, pad[(i-1)%3])
		}
	}
	c.FillRow(0, k)
	c.FillCol(0, k)
	return c
}

func TestStepSingleRound(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	cur := crossColoring(5, 5, 1)
	next := cur.Clone()
	changed := eng.Step(cur, next)
	if changed == 0 {
		t.Fatal("first round should change at least the inner corners")
	}
	// (1,1) has two k-neighbors (0,1),(1,0) and two distinct others.
	if next.AtRC(1, 1) != 1 {
		t.Errorf("(1,1) should adopt color 1, got %v", next.AtRC(1, 1))
	}
	// cur must be untouched.
	if cur.AtRC(1, 1) == 1 {
		t.Error("Step must not modify the current configuration")
	}
}

func TestStepDimensionMismatchPanics(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	eng := NewEngine(topo, rules.SMP{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng.Step(color.NewColoring(grid.MustDims(5, 5), 1), color.NewColoring(grid.MustDims(5, 5), 1))
}

func TestRunCrossDynamoMesh(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(crossColoring(5, 5, 1), Options{Target: 1, StopWhenMonochromatic: true})
	if !res.Monochromatic || res.FinalColor != 1 {
		t.Fatalf("cross configuration should be a dynamo, got %+v\n%s", res, res.Final.String())
	}
	if !res.MonotoneTarget {
		t.Error("cross dynamo should be monotone")
	}
	if len(res.FirstReached) != topo.Dims().N() || slices.Min(res.FirstReached) < 0 {
		t.Error("every vertex should reach the target")
	}
	// Figure 5 / Theorem 7: on a 5x5 mesh the cross dynamo completes in 3 rounds.
	if res.Rounds != 3 {
		t.Errorf("rounds = %d, want 3 (Theorem 7)", res.Rounds)
	}
}

func TestRunMatchesFigure5Matrix(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(crossColoring(5, 5, 1), Options{Target: 1, StopWhenMonochromatic: true})
	want := [][]int{
		{0, 0, 0, 0, 0},
		{0, 1, 2, 2, 1},
		{0, 2, 3, 3, 2},
		{0, 2, 3, 3, 2},
		{0, 1, 2, 2, 1},
	}
	got := res.TimesMatrix(topo.Dims())
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("recoloring time (%d,%d) = %d, want %d (Figure 5)\n got %v", i, j, got[i][j], want[i][j], got)
			}
		}
	}
}

func TestRunStopsAtFixedPointWithoutMonochromaticity(t *testing.T) {
	// A 2x2 block of color 2 inside a field of color 1 is stable under SMP:
	// every block vertex keeps two neighbors of its own color, and no other
	// vertex sees a qualifying pattern, so the system freezes immediately.
	c := color.NewColoring(grid.MustDims(6, 6), 1)
	c.SetRC(2, 2, 2)
	c.SetRC(2, 3, 2)
	c.SetRC(3, 2, 2)
	c.SetRC(3, 3, 2)
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	res := NewEngine(topo, rules.SMP{}).Run(c, Options{Target: 2, StopWhenMonochromatic: true})
	if !res.FixedPoint {
		t.Fatalf("expected a fixed point, got %+v", res)
	}
	if res.Monochromatic {
		t.Error("configuration must not become monochromatic")
	}
	if !res.Final.Equal(c) {
		t.Error("fixed point should equal the initial configuration")
	}
}

func TestRunMaxRoundsBudget(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(crossColoring(5, 5, 1), Options{MaxRounds: 1, Target: 1, StopWhenMonochromatic: true})
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
	if res.Monochromatic {
		t.Error("one round cannot complete the 5x5 cross dynamo")
	}
}

func TestRunRecordsHistoryAndChanges(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(crossColoring(5, 5, 1), Options{Target: 1, StopWhenMonochromatic: true, RecordHistory: true})
	if len(res.History) != res.Rounds {
		t.Fatalf("history length %d, want %d", len(res.History), res.Rounds)
	}
	if len(res.ChangesPerRound) != res.Rounds {
		t.Fatalf("changes length %d, want %d", len(res.ChangesPerRound), res.Rounds)
	}
	// The k-set must grow monotonically through the history.
	prev := crossColoring(5, 5, 1)
	for i, h := range res.History {
		for v := 0; v < h.N(); v++ {
			if prev.At(v) == 1 && h.At(v) != 1 {
				t.Fatalf("k-set shrank at round %d", i+1)
			}
		}
		prev = h
	}
	last := res.History[len(res.History)-1]
	if _, ok := last.IsMonochromatic(); !ok {
		t.Error("last history entry should be monochromatic")
	}
}

// finishCounter records OnFinish invocations alongside per-round callbacks.
type finishCounter struct {
	rounds   []int
	finished int
	last     *Result
}

func (f *finishCounter) OnRound(round int, c *color.Coloring) { f.rounds = append(f.rounds, round) }
func (f *finishCounter) OnFinish(r *Result)                   { f.finished++; f.last = r }

func TestRunObservers(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	obs := &finishCounter{}
	var viaFunc []int
	res := eng.Run(crossColoring(5, 5, 1), Options{
		Target: 1, StopWhenMonochromatic: true,
		Observers: []Observer{
			obs,
			RoundFunc(func(round int, c *color.Coloring) { viaFunc = append(viaFunc, round) }),
		},
	})
	if len(obs.rounds) != 3 || obs.rounds[0] != 1 || obs.rounds[2] != 3 {
		t.Errorf("observer rounds = %v", obs.rounds)
	}
	if len(viaFunc) != len(obs.rounds) {
		t.Errorf("RoundFunc saw %v, observer saw %v", viaFunc, obs.rounds)
	}
	if obs.finished != 1 || obs.last != res {
		t.Errorf("OnFinish called %d times (result match %v)", obs.finished, obs.last == res)
	}
}

func TestRunContextCancellation(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	obs := &finishCounter{}
	res, err := eng.RunContext(ctx, crossColoring(5, 5, 1), Options{
		Target: 1, StopWhenMonochromatic: true, Observers: []Observer{obs},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Rounds != 0 {
		t.Errorf("canceled run should return the partial result, got %+v", res)
	}
	if obs.finished != 0 {
		t.Error("OnFinish must not fire for an aborted run")
	}

	// Cancellation mid-run: stop after the first round.
	ctx2, cancel2 := context.WithCancel(context.Background())
	mid, err := eng.RunContext(ctx2, crossColoring(5, 5, 1), Options{
		Target: 1, StopWhenMonochromatic: true,
		Observers: []Observer{RoundFunc(func(round int, c *color.Coloring) { cancel2() })},
	})
	if err != context.Canceled {
		t.Fatalf("mid-run err = %v, want context.Canceled", err)
	}
	if mid.Rounds != 1 {
		t.Errorf("mid-run stopped after %d rounds, want 1", mid.Rounds)
	}
	if mid.Final == nil {
		t.Error("partial result should carry the last completed configuration")
	}
}

func TestEffectiveWorkers(t *testing.T) {
	cases := []struct {
		opt  Options
		n    int
		want int
	}{
		{Options{}, 100, 1},                                              // sequential path ignores Workers
		{Options{Workers: 8}, 100, 1},                                    // Workers without Parallel is ignored
		{Options{Parallel: true, Workers: 4}, 100, 4},                    // requested count honored
		{Options{Parallel: true, Workers: 64}, 9, 9},                     // capped at the vertex count
		{Options{Parallel: true, Workers: 1}, 100, 1},                    // parallel with one worker is sequential
		{Options{Parallel: true, Workers: 1 << 20}, 1 << 20, maxWorkers}, // a stripe per vertex is capped
	}
	for i, tc := range cases {
		if got := tc.opt.EffectiveWorkers(tc.n); got != tc.want {
			t.Errorf("case %d: EffectiveWorkers(%d) = %d, want %d", i, tc.n, got, tc.want)
		}
	}
	// Non-positive Workers selects GOMAXPROCS, then caps at the vertex count.
	gmp := runtime.GOMAXPROCS(0)
	wantAuto := gmp
	if wantAuto > 2 {
		wantAuto = 2
	}
	if got := (Options{Parallel: true, Workers: -3}).EffectiveWorkers(2); got != wantAuto {
		t.Errorf("EffectiveWorkers(2) with auto workers = %d, want %d", got, wantAuto)
	}

	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	eng := NewEngine(topo, rules.SMP{})
	seq := eng.Run(crossColoring(6, 6, 1), Options{Target: 1, StopWhenMonochromatic: true})
	if seq.Workers != 1 {
		t.Errorf("sequential Result.Workers = %d, want 1", seq.Workers)
	}
	par := eng.Run(crossColoring(6, 6, 1), Options{Target: 1, StopWhenMonochromatic: true, Parallel: true, Workers: 3})
	if par.Workers != 3 {
		t.Errorf("parallel Result.Workers = %d, want 3", par.Workers)
	}
	if !seq.Final.Equal(par.Final) || seq.Rounds != par.Rounds {
		t.Error("parallel and sequential runs must be bit-identical")
	}
}

func TestRunDetectsPeriodTwoCycle(t *testing.T) {
	// Under the Prefer-Black reversible rule an alternating 2-coloring of a
	// 4x4 mesh flips every vertex every round: each vertex has 4 neighbors
	// of the opposite color, so the whole torus oscillates with period 2.
	c := color.NewColoring(grid.MustDims(4, 4), 1)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if (i+j)%2 == 0 {
				c.SetRC(i, j, 2)
			}
		}
	}
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	res := NewEngine(topo, rules.SimpleMajorityPB{Black: 2}).Run(c, Options{DetectCycles: true, MaxRounds: 50})
	if !res.Cycle {
		t.Fatalf("expected a period-2 cycle, got %+v", res)
	}
	if res.Rounds >= 50 {
		t.Error("cycle should be detected well before the round budget")
	}
}

func TestRunWithoutTargetHasNoTrace(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	res := NewEngine(topo, rules.SMP{}).Run(crossColoring(5, 5, 1), Options{StopWhenMonochromatic: true})
	if res.FirstReached != nil {
		t.Error("FirstReached should be nil without a target")
	}
	if res.MonotoneTarget {
		t.Error("MonotoneTarget should be false without a target")
	}
	m := res.TimesMatrix(topo.Dims())
	if m[2][2] != -1 {
		t.Error("TimesMatrix without target should be -1 everywhere")
	}
}

func TestRunDoesNotModifyInitial(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	initial := crossColoring(5, 5, 1)
	snapshot := initial.Clone()
	NewEngine(topo, rules.SMP{}).Run(initial, Options{Target: 1, StopWhenMonochromatic: true})
	if !initial.Equal(snapshot) {
		t.Error("Run must not modify the initial coloring")
	}
}

func TestRunConvenienceWrapper(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	res := NewEngine(topo, rules.SMP{}).Run(crossColoring(5, 5, 1), Options{Target: 1, StopWhenMonochromatic: true})
	if !res.Monochromatic {
		t.Error("wrapper Run should behave like Engine.Run")
	}
}

func TestRunDimensionMismatchPanics(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(topo, rules.SMP{}).Run(color.NewColoring(grid.MustDims(5, 5), 1), Options{})
}

func TestMonotoneTargetDetectsShrinking(t *testing.T) {
	// Under Prefer-Black with black=2, a lone black vertex surrounded by
	// white reverts to white: the black set shrinks, so MonotoneTarget must
	// be false.
	c := color.NewColoring(grid.MustDims(5, 5), 1)
	c.SetRC(2, 2, 2)
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	res := NewEngine(topo, rules.SimpleMajorityPB{Black: 2}).Run(c, Options{Target: 2, MaxRounds: 5})
	if res.MonotoneTarget {
		t.Error("shrinking target set must clear MonotoneTarget")
	}
}

func TestDefaultMaxRoundsScalesWithSize(t *testing.T) {
	small := DefaultMaxRounds(grid.MustDims(3, 3))
	big := DefaultMaxRounds(grid.MustDims(30, 30))
	if small <= 0 || big <= small {
		t.Errorf("DefaultMaxRounds not increasing: %d %d", small, big)
	}
}

// Property: with random initial colorings under SMP, the engine always
// terminates (fixed point, cycle, or budget) and the reported final
// configuration matches a fresh recomputation from the initial state.
func TestRunDeterministicProperty(t *testing.T) {
	f := func(seed uint64, kindSeed, rowSeed, colSeed, kSeed uint8) bool {
		kind := grid.Kinds()[int(kindSeed)%3]
		m := 3 + int(rowSeed)%6
		n := 3 + int(colSeed)%6
		k := 2 + int(kSeed)%4
		topo := grid.MustNew(kind, m, n)
		p := color.MustPalette(k)
		src := rng.New(seed)
		init := color.RandomColoring(topo.Dims(), p, func() int { return src.Intn(p.K) })
		eng := NewEngine(topo, rules.SMP{})
		a := eng.Run(init, Options{Target: 1, StopWhenMonochromatic: true, MaxRounds: 200})
		b := eng.Run(init, Options{Target: 1, StopWhenMonochromatic: true, MaxRounds: 200})
		return a.Final.Equal(b.Final) && a.Rounds == b.Rounds && a.Monochromatic == b.Monochromatic
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDroppedEngineFreedByNextCollection pins that nothing outside an
// engine keeps it alive once its holder drops it: after a run through each
// of its free lists (run state and bit-sliced stepper), one collection
// frees the engine's adjacency index.  A sync.Pool inside the engine would
// keep the engine, and so the index, reachable through that collection.
func TestDroppedEngineFreedByNextCollection(t *testing.T) {
	freed := make(chan struct{})
	func() {
		topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
		eng := NewEngine(topo, rules.SMP{})
		runtime.SetFinalizer(eng.csr, func(*grid.CSR) { close(freed) })
		eng.Run(randomTestColoring(1, topo.Dims(), 5), Options{MaxRounds: 8})
		if _, err := eng.RunBatchSliced(context.Background(), ensembleLanes(topo.Dims(), 64), Options{MaxRounds: 8}); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("the engine's CSR outlived the first collection after the engine was dropped")
	}
}
