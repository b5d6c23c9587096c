package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/tvg"
)

// legacyTVRun is the deleted tvg.Run loop, preserved verbatim as the oracle
// for the engine's time-varying mode: full double-buffered sweep, reduced
// neighborhoods, rule applied only when at least two neighbors are
// reachable, stop at monochromatic, fixed-point stop only when always-on.
func legacyTVRun(topo grid.Topology, avail Availability, rule rules.Rule, initial *color.Coloring, maxRounds int) (rounds int, final *color.Coloring) {
	d := topo.Dims()
	if maxRounds <= 0 {
		maxRounds = 6*d.N() + 32
	}
	cur := initial.Clone()
	next := initial.Clone()
	var buf [grid.Degree]int
	scratch := make([]color.Color, 0, grid.Degree)
	alwaysOn := false
	if s, ok := avail.(interface{ Static() bool }); ok {
		alwaysOn = s.Static()
	}
	for round := 1; round <= maxRounds; round++ {
		changed := 0
		for v := 0; v < d.N(); v++ {
			scratch = scratch[:0]
			for _, u := range topo.Neighbors(v, buf[:0]) {
				a, b := v, u
				if a > b {
					a, b = b, a
				}
				if avail.Available(round, a, b) {
					scratch = append(scratch, cur.At(u))
				}
			}
			nc := cur.At(v)
			if len(scratch) >= 2 {
				nc = rule.Next(cur.At(v), scratch)
			}
			next.Set(v, nc)
			if nc != cur.At(v) {
				changed++
			}
		}
		rounds = round
		cur, next = next, cur
		if _, mono := cur.IsMonochromatic(); mono {
			break
		}
		if changed == 0 && alwaysOn {
			break
		}
	}
	return rounds, cur
}

// tvTestConfig is a deterministic non-trivial initial configuration: a
// target cross over a striped background.
func tvTestConfig(d grid.Dims, k int) *color.Coloring {
	c := color.NewColoring(d, color.None)
	for v := 0; v < d.N(); v++ {
		c.Set(v, color.Color(2+(v%(k-1))))
	}
	c.FillRow(0, 1)
	c.FillCol(0, 1)
	return c
}

// TestTimeVaryingMatchesLegacyLoop pins the engine's time-varying mode
// bit-identical to the deleted tvg.Run loop across availability models,
// topologies and seeds, sequentially and in parallel.
func TestTimeVaryingMatchesLegacyLoop(t *testing.T) {
	models := []Availability{
		tvg.AlwaysOn{},
		tvg.Bernoulli{P: 0.9, Seed: 3},
		tvg.Bernoulli{P: 0.5, Seed: 8},
		tvg.Periodic{Period: 3, Off: 1},
		tvg.NodeFaults{P: 0.9, Seed: 5},
	}
	for _, kind := range grid.Kinds() {
		topo := grid.MustNew(kind, 9, 9)
		initial := tvTestConfig(topo.Dims(), 5)
		eng := NewEngine(topo, rules.SMP{})
		for _, avail := range models {
			wantRounds, wantFinal := legacyTVRun(topo, avail, rules.SMP{}, initial, 600)
			for _, workers := range []int{0, 4} {
				opt := Options{
					TimeVarying:           avail,
					MaxRounds:             600,
					StopWhenMonochromatic: true,
				}
				if workers > 0 {
					opt.Parallel, opt.Workers = true, workers
				}
				res := eng.Run(initial, opt)
				if res.Rounds != wantRounds {
					t.Fatalf("%v %T workers=%d: rounds %d vs legacy %d", kind, avail, workers, res.Rounds, wantRounds)
				}
				if !res.Final.Equal(wantFinal) {
					t.Fatalf("%v %T workers=%d: final configurations differ", kind, avail, workers)
				}
			}
		}
	}
}

// stripeCutter is the adversarial availability model of the unsoundness
// proof: every link is up in round 1, and from round 2 on only horizontal
// (same-row) links stay up.
type stripeCutter struct{ cols int }

func (s stripeCutter) Available(round, u, v int) bool {
	if round < 2 {
		return true
	}
	return u/s.cols == v/s.cols
}

// TestTimeVaryingFrontierWouldBeUnsound is the proof behind
// ErrTimeVaryingSweepOnly.  The initial configuration — alternating
// single-color columns — is a static fixed point (every vertex sits on a
// 2+2 tie), so round 1 changes nothing and a dirty-frontier stepper would
// empty its queue and idle forever.  From round 2 the model cuts the
// vertical links, every vertex suddenly sees only its two horizontal
// neighbors (an opposite-colored pair, a unique majority), and the whole
// torus must flip: the correct run has ChangesPerRound = [0, n, ...].  The
// engine therefore refuses the frontier and bitplane kernels under
// TimeVarying and pins auto-selection to the sweep tiers.
func TestTimeVaryingFrontierWouldBeUnsound(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	d := topo.Dims()
	initial := color.NewColoring(d, color.None)
	for v := 0; v < d.N(); v++ {
		initial.Set(v, color.Color(1+v%2))
	}
	eng := NewEngine(topo, rules.SMP{})

	// The configuration really is a static fixed point.
	static := eng.Run(initial, Options{MaxRounds: 5})
	if !static.FixedPoint || static.Rounds != 1 {
		t.Fatalf("precondition: expected an immediate static fixed point, got %+v", static)
	}

	cutter := stripeCutter{cols: d.Cols}
	res := eng.Run(initial, Options{TimeVarying: cutter, MaxRounds: 4})
	if len(res.ChangesPerRound) != 4 {
		t.Fatalf("run stopped early: %v", res.ChangesPerRound)
	}
	if res.ChangesPerRound[0] != 0 {
		t.Fatalf("round 1 should change nothing, got %d", res.ChangesPerRound[0])
	}
	if res.ChangesPerRound[1] != d.N() {
		t.Fatalf("round 2 must flip every vertex (%d), got %d — the zero-change round did not quiesce the dynamics", d.N(), res.ChangesPerRound[1])
	}
	if res.Kernel != KernelSweep {
		t.Fatalf("time-varying auto selection must sweep, got %v", res.Kernel)
	}
	if res.FixedPoint {
		t.Fatal("a zero-change round under a non-static model must not be reported as a fixed point")
	}

	// The incremental kernels are refused outright.
	for _, kernel := range []Kernel{KernelFrontier, KernelBitplane} {
		_, err := eng.RunContext(context.Background(), initial, Options{TimeVarying: cutter, Kernel: kernel})
		if !errors.Is(err, ErrTimeVaryingSweepOnly) {
			t.Fatalf("kernel %v: want ErrTimeVaryingSweepOnly, got %v", kernel, err)
		}
	}
}

// TestTimeVaryingDetectCyclesInertWhenChurny pins the DetectCycles gating:
// on a non-static model a configuration matching the one from two rounds
// ago proves nothing (a quiet spell under bad link draws is not a cycle),
// so the run must keep sweeping instead of stopping with a Cycle verdict.
// The stripeCutter leaves round 1 changeless — next equals the two-rounds-
// ago snapshot — yet round 2 flips the whole torus.
func TestTimeVaryingDetectCyclesInertWhenChurny(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	d := topo.Dims()
	initial := color.NewColoring(d, color.None)
	for v := 0; v < d.N(); v++ {
		initial.Set(v, color.Color(1+v%2))
	}
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(initial, Options{TimeVarying: stripeCutter{cols: d.Cols}, MaxRounds: 4, DetectCycles: true})
	if res.Cycle {
		t.Fatal("a quiet round under a non-static model must not be reported as a cycle")
	}
	if res.Rounds != 4 || res.ChangesPerRound[1] != d.N() {
		t.Fatalf("run must keep sweeping through the quiet round: %+v", res.ChangesPerRound)
	}
	// Static models keep genuine period-2 detection: a two-color
	// checkerboard under Prefer-Current oscillates with period 2.
	checker := color.NewColoring(d, color.None)
	for v := 0; v < d.N(); v++ {
		r, c := v/d.Cols, v%d.Cols
		checker.Set(v, color.Color(1+(r+c)%2))
	}
	osc := NewEngine(topo, rules.SimpleMajorityPC{}).Run(checker, Options{
		TimeVarying: tvg.AlwaysOn{}, MaxRounds: 50, DetectCycles: true,
	})
	if !osc.Cycle {
		t.Fatalf("static time-varying run must still detect the checkerboard cycle, got %d rounds", osc.Rounds)
	}
}

// TestTimeVaryingStaticModelKeepsFixedPointStop pins the declaratively
// static models to the static semantics: a zero-change round ends the run.
func TestTimeVaryingStaticModelKeepsFixedPointStop(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	d := topo.Dims()
	initial := color.NewColoring(d, color.None)
	for v := 0; v < d.N(); v++ {
		initial.Set(v, color.Color(1+v%2))
	}
	eng := NewEngine(topo, rules.SMP{})
	for _, avail := range []Availability{tvg.AlwaysOn{}, tvg.Bernoulli{P: 1}, tvg.Periodic{Period: 4, Off: 0}} {
		res := eng.Run(initial, Options{TimeVarying: avail, MaxRounds: 50})
		if !res.FixedPoint || res.Rounds != 1 {
			t.Fatalf("%T: static model should stop at the fixed point after round 1, got rounds=%d fixed=%v", avail, res.Rounds, res.FixedPoint)
		}
	}
}

// TestTimeVaryingOnGraphSubstrate runs the time-varying mode over a
// general-graph substrate — the combination the paper's conclusions ask
// for — and checks the no-availability degenerate case.
func TestTimeVaryingOnGraphSubstrate(t *testing.T) {
	// A 5-cycle: vertices 0..4, colored 1,2,2,2,2.
	adj := [][]int{{4, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 0}}
	sub := &adjSubstrate{csr: grid.BuildCSRAdj(adj)}
	eng := NewEngineOn(sub, rules.GeneralizedSMP{})
	initial := color.NewColoring(sub.Dims(), 2)
	initial.Set(0, 1)

	// Fully available: the lone dissenter is overwritten in one round.
	res := eng.Run(initial, Options{TimeVarying: tvg.AlwaysOn{}, MaxRounds: 20})
	if !res.FixedPoint || res.Final.Count(1) != 0 {
		t.Fatalf("always-on graph run should erase the dissenter, got %+v", res)
	}

	// No links: nothing can change; the run burns its budget.
	res = eng.Run(initial, Options{TimeVarying: tvg.Bernoulli{P: 0, Seed: 1}, MaxRounds: 7})
	if res.Rounds != 7 || !res.Final.Equal(initial) {
		t.Fatalf("zero availability must freeze the graph, got rounds=%d", res.Rounds)
	}

	// Sequential and parallel time-varying graph runs agree.
	churn := tvg.Bernoulli{P: 0.6, Seed: 4}
	seq := eng.Run(initial, Options{TimeVarying: churn, MaxRounds: 40})
	par := eng.Run(initial, Options{TimeVarying: churn, MaxRounds: 40, Parallel: true, Workers: 3})
	if seq.Rounds != par.Rounds || !seq.Final.Equal(par.Final) {
		t.Fatal("sequential and parallel time-varying graph runs diverged")
	}
}

// adjSubstrate is a minimal test Substrate over a raw adjacency CSR.
type adjSubstrate struct{ csr *grid.CSR }

func (s *adjSubstrate) Dims() grid.Dims       { return s.csr.Dims() }
func (s *adjSubstrate) Name() string          { return "test-adj" }
func (s *adjSubstrate) CSR() *grid.CSR        { return s.csr }
func (s *adjSubstrate) DefaultMaxRounds() int { return 4*s.csr.N() + 16 }

// TestTimeVaryingBernoulliParallelDeterminism re-runs a churny parallel
// time-varying run and demands identical outcomes: availability models are
// pure functions of (round, u, v), so worker scheduling must not leak in.
func TestTimeVaryingBernoulliParallelDeterminism(t *testing.T) {
	topo := grid.MustNew(grid.KindTorusSerpentinus, 8, 8)
	initial := tvTestConfig(topo.Dims(), 4)
	eng := NewEngine(topo, rules.SMP{})
	opt := Options{TimeVarying: tvg.Bernoulli{P: 0.7, Seed: 11}, MaxRounds: 120, Parallel: true, Workers: 7}
	first := eng.Run(initial, opt)
	for i := 0; i < 3; i++ {
		again := eng.Run(initial, opt)
		if again.Rounds != first.Rounds || !again.Final.Equal(first.Final) {
			t.Fatal("parallel time-varying run is not deterministic")
		}
	}
}

// TestTimeVaryingStepAllocates pins the steady-state allocation behavior of
// the sequential time-varying sweep: pooled buffers, zero allocations per
// round once warm.
func TestTimeVaryingStepDoesNotAllocate(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	eng := NewEngine(topo, rules.SMP{})
	initial := tvTestConfig(topo.Dims(), 5)
	// Convert to the interface once, as Options.TimeVarying does; converting
	// a 16-byte struct per call would itself allocate.
	var churn Availability = tvg.Bernoulli{P: 0.8, Seed: 2}
	st := eng.getState()
	defer eng.putState(st)
	cur := initial.Clone()
	next := initial.Clone()
	round := 0
	avg := testing.AllocsPerRun(200, func() {
		round++
		eng.stepRangeTV(round, churn, cur.Cells(), next.Cells(), 0, cur.N(), st.scratch)
	})
	if avg != 0 {
		t.Fatalf("time-varying step allocates %.1f allocs/op, want 0", avg)
	}
}

// TestTimeVaryingRespectsContext checks cancellation at round boundaries
// carries over to the time-varying mode.
func TestTimeVaryingRespectsContext(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	eng := NewEngine(topo, rules.SMP{})
	initial := tvTestConfig(topo.Dims(), 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := eng.RunContext(ctx, initial, Options{TimeVarying: tvg.Bernoulli{P: 0.5, Seed: 1}, MaxRounds: 100})
	if err == nil {
		t.Fatal("canceled context must abort the run")
	}
	if res == nil {
		t.Fatal("aborted runs still return the partial result")
	}
}
