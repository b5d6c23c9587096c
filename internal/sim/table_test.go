package sim

import (
	"fmt"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// mintRule is the SMP-Protocol extended past the rule table's colors: a
// vertex whose four neighbors all hold one color a ≤ 4 other than its own
// mints color 8+a, a minted color spreads to every neighbor (the largest
// one wins), and a minted vertex steps through 9 → 10 → 11 → 12 → 9, so
// colors 9–12 appear mid-run and never die out.
type mintRule struct{}

func (mintRule) Name() string { return "mint" }

func (m mintRule) Next(c color.Color, ns []color.Color) color.Color {
	var cs rules.Counts
	for _, n := range ns {
		cs.Add(n)
	}
	return m.NextFromCounts(c, cs)
}

func (mintRule) NextFromCounts(c color.Color, cs rules.Counts) color.Color {
	if c >= 9 {
		return 9 + (c-8)%4
	}
	for minted := color.Color(12); minted >= 9; minted-- {
		if cs.Of(minted) > 0 {
			return minted
		}
	}
	if best, count, _ := cs.Max(); count == 4 && best != c && best <= 4 {
		return 8 + best
	}
	return rules.SMP{}.NextFromCounts(c, cs)
}

// TestTableFallbackMatchesOracle runs mintRule, whose colors leave the
// rule table mid-run, on every tabulated scalar tier — the frontier (a
// vertex outside the table takes the counts path), the one-stripe sweep and
// 2 to 4 stripes (a stripe that meets such a vertex finishes on the counts
// path and the run drops the table), and a uniform-async schedule — and
// pins each Result's bytes to the untabulated oracle's.
func TestTableFallbackMatchesOracle(t *testing.T) {
	modes := []struct {
		name string
		opt  Options
	}{
		{"frontier", Options{Kernel: KernelFrontier}},
		{"sweep", Options{Kernel: KernelParallel, Workers: 1}},
		{"stripes-2", Options{Kernel: KernelParallel, Workers: 2}},
		{"stripes-3", Options{Kernel: KernelParallel, Workers: 3}},
		{"stripes-4", Options{Kernel: KernelParallel, Workers: 4}},
		{"uniform-async", Options{Schedule: &Schedule{Kind: ScheduleUniformAsync, Seed: 5}}},
	}
	midRun := 0
	for _, kind := range grid.Kinds() {
		for _, sz := range [][2]int{{2, 7}, {6, 6}, {9, 11}} {
			topo := grid.MustNew(kind, sz[0], sz[1])
			eng := NewEngine(topo, mintRule{})
			for _, k := range []int{2, 5, 8} {
				for seed := uint64(1); seed <= 3; seed++ {
					initial := randomTestColoring(seed, topo.Dims(), k)
					for _, m := range modes {
						opt := m.opt
						opt.MaxRounds, opt.Target, opt.DetectCycles, opt.RecordHistory = 30, 1, true, true
						sweep := opt
						sweep.Kernel = KernelSweep
						oracle := eng.Run(initial, sweep)
						label := fmt.Sprintf("%v/k=%d/seed=%d/%s", topo.Dims(), k, seed, m.name)
						resultBytesEqual(t, label, eng.Run(initial, opt), oracle)
						if m.name == "sweep" && len(oracle.History) > 1 && maxColor(oracle.History[0]) <= rules.TableColors && maxColor(oracle.Final) > rules.TableColors {
							midRun++
						}
					}
				}
			}
		}
	}
	if midRun < 10 {
		t.Fatalf("only %d runs minted colors past the table after round 1; the fallback is barely exercised", midRun)
	}
}

// TestStripeLeavesTable steps the striped sweep round by round under
// mintRule: a stripe that meets a color outside the table must report it,
// the driver must drop the table from the next round on, and every round
// must match the oracle Step.
func TestStripeLeavesTable(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 12, 12)
	eng := NewEngine(topo, mintRule{})
	initial := randomTestColoring(4, topo.Dims(), 2)
	opt := Options{Kernel: KernelParallel, Workers: 3}
	st := eng.getState()
	defer eng.putState(st)
	d := eng.newSweepDriver(st, initial, opt, nil, nil, 3, true, nil)
	if d.tab == nil {
		t.Fatal("the striped sweep got no rule table")
	}
	want := initial.Clone()
	next := initial.Clone()
	res := &Result{MonotoneTarget: true}
	left := false
	for round := 1; round <= 8; round++ {
		left = left || maxColor(d.config()) > rules.TableColors
		got := d.stepRound(round, res, opt)
		if wantChanged := eng.Step(want, next); got != wantChanged || !d.config().Equal(next) {
			t.Fatalf("round %d: the striped round differs from the oracle Step", round)
		}
		want, next = next, want
		if (d.tab == nil) != left {
			t.Fatalf("round %d: table dropped %v, want %v", round, d.tab == nil, left)
		}
	}
	if !left {
		t.Fatal("no round met a color outside the table")
	}

	// One range: the stripe switches to the counts path at the first
	// vertex outside the table and reports it.
	cur := eng.table()
	cells := want.Cells()
	out := make([]color.Color, len(cells))
	oracle := make([]color.Color, len(cells))
	gotChanged, gotLeft := eng.stepRange(cur, cells, out, 0, len(cells), nil)
	wantChanged, wantLeft := eng.stepRange(nil, cells, oracle, 0, len(cells), nil)
	if gotChanged != wantChanged || !gotLeft || wantLeft || fmt.Sprint(out) != fmt.Sprint(oracle) {
		t.Fatalf("stepRange with the table: changed %d left %v, oracle changed %d left %v", gotChanged, gotLeft, wantChanged, wantLeft)
	}
}
