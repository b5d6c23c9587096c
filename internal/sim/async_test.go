package sim

import (
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// AsyncOrder selects the vertex activation order of the asynchronous
// (sequential-scan) variant.
type AsyncOrder int

const (
	// AsyncRaster activates vertices in row-major order each sweep.
	AsyncRaster AsyncOrder = iota
	// AsyncRandom activates vertices in a fresh random permutation each
	// sweep (requires a Source).
	AsyncRandom
)

// AsyncOptions controls RunAsync.
type AsyncOptions struct {
	// MaxSweeps bounds the number of full sweeps over the vertex set.  Zero
	// selects DefaultMaxRounds.
	MaxSweeps int
	// Order selects the activation order.
	Order AsyncOrder
	// Seed selects the AsyncRandom permutation stream: sweep s uses the
	// permutation drawn from rng.New(rng.Hash(Seed, s)) — the same stateless
	// derivation the ScheduleRandomSequential driver uses, which is what
	// makes the two paths comparable draw for draw.  AsyncRaster ignores it.
	Seed uint64
	// StopWhenMonochromatic stops as soon as all vertices agree.
	StopWhenMonochromatic bool
}

// AsyncResult describes a finished asynchronous run.
type AsyncResult struct {
	// Sweeps is the number of full sweeps executed.
	Sweeps int
	// FixedPoint reports that the final sweep changed nothing.
	FixedPoint bool
	// Monochromatic reports a monochromatic final configuration of color
	// FinalColor.
	Monochromatic bool
	FinalColor    color.Color
	// Final is the final configuration.
	Final *color.Coloring
}

// RunAsync evolves the initial coloring with in-place (asynchronous) updates:
// each sweep visits every vertex once and immediately commits its new color,
// so later vertices in the same sweep observe earlier updates.
//
// It is the standalone differential-test oracle the engine's sequential
// schedules (Options.Schedule with ScheduleSequential or
// ScheduleRandomSequential) are pinned against
// (TestScheduleSequentialMatchesRunAsync): it has its own sweep loop and
// order but shares the engine's rule application, Engine.next, so its
// independent reference is naiveAsyncSweep, which reads neighbors through
// the Topology and applies Rule.Next (TestRunAsyncParityWithNaivePath).
func (e *Engine) RunAsync(initial *color.Coloring, opt AsyncOptions) *AsyncResult {
	d := e.sub.Dims()
	if initial.Dims() != d {
		panic("sim: RunAsync dimension mismatch")
	}
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = e.sub.DefaultMaxRounds()
	}

	cur := initial.Clone()
	cells := cur.Cells()
	res := &AsyncResult{}
	order := make([]int, d.N())
	for i := range order {
		order[i] = i
	}

	scratch := make([]color.Color, 0, e.maxDeg)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		if opt.Order == AsyncRandom {
			for i := range order {
				order[i] = i
			}
			src := rng.New(rng.Hash(opt.Seed, uint64(sweep)))
			src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		changed := 0
		for _, v := range order {
			if nc := e.next(nil, cells, v, &scratch); nc != cells[v] {
				cells[v] = nc
				changed++
			}
		}
		res.Sweeps = sweep
		if changed == 0 {
			res.FixedPoint = true
			break
		}
		if opt.StopWhenMonochromatic {
			if _, ok := cur.IsMonochromatic(); ok {
				break
			}
		}
	}
	res.Final = cur
	res.FinalColor, res.Monochromatic = cur.IsMonochromatic()
	return res
}

func TestRunAsyncRasterConvergesOnCross(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 7, 7)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.RunAsync(crossColoring(7, 7, 1), AsyncOptions{Order: AsyncRaster, StopWhenMonochromatic: true})
	if !res.Monochromatic || res.FinalColor != 1 {
		t.Fatalf("async raster run should converge to color 1: %+v", res)
	}
	// In-place raster sweeps propagate information faster than synchronous
	// rounds, never slower.
	sync := eng.Run(crossColoring(7, 7, 1), Options{StopWhenMonochromatic: true})
	if res.Sweeps > sync.Rounds {
		t.Errorf("async took %d sweeps, synchronous %d rounds", res.Sweeps, sync.Rounds)
	}
}

func TestRunAsyncRandomOrderDeterministicWithSeed(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	eng := NewEngine(topo, rules.SMP{})
	init := randomColoring(3, 6, 6, 4)
	a := eng.RunAsync(init, AsyncOptions{Order: AsyncRandom, Seed: 5, StopWhenMonochromatic: true})
	b := eng.RunAsync(init, AsyncOptions{Order: AsyncRandom, Seed: 5, StopWhenMonochromatic: true})
	if !a.Final.Equal(b.Final) || a.Sweeps != b.Sweeps {
		t.Error("same seed must give identical async runs")
	}
}

func TestRunAsyncRandomWithoutSeedUsesDefault(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.RunAsync(crossColoring(5, 5, 1), AsyncOptions{Order: AsyncRandom})
	if res.Sweeps == 0 {
		t.Error("async run with the zero seed did nothing")
	}
}

func TestRunAsyncReachesFixedPointOnBlockedConfiguration(t *testing.T) {
	c := color.NewColoring(grid.MustDims(6, 6), 1)
	c.SetRC(2, 2, 2)
	c.SetRC(2, 3, 2)
	c.SetRC(3, 2, 2)
	c.SetRC(3, 3, 2)
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	res := NewEngine(topo, rules.SMP{}).RunAsync(c, AsyncOptions{Order: AsyncRaster})
	if !res.FixedPoint {
		t.Fatal("expected fixed point")
	}
	if res.Monochromatic {
		t.Error("blocked configuration must not become monochromatic")
	}
}

func TestRunAsyncDoesNotModifyInitial(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	init := crossColoring(5, 5, 1)
	snap := init.Clone()
	NewEngine(topo, rules.SMP{}).RunAsync(init, AsyncOptions{Order: AsyncRaster})
	if !init.Equal(snap) {
		t.Error("RunAsync must not modify the initial coloring")
	}
}

func TestRunAsyncMaxSweeps(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	res := NewEngine(topo, rules.SMP{}).RunAsync(crossColoring(9, 9, 1), AsyncOptions{MaxSweeps: 1, Order: AsyncRaster})
	if res.Sweeps != 1 {
		t.Errorf("sweeps = %d, want 1", res.Sweeps)
	}
}

// naiveAsyncSweep is the pre-CSR reference implementation of one raster
// sweep: per-vertex neighbor gathering through the Topology interface and
// rule evaluation through Rule.Next, committing updates in place.  It is
// the parity oracle for RunAsync's rewiring onto the engine's CSR index and
// its one rule application, Engine.next.
func naiveAsyncSweep(topo grid.Topology, rule rules.Rule, cfg *color.Coloring) int {
	changed := 0
	n := cfg.N()
	nbuf := make([]int, 0, grid.Degree)
	cbuf := make([]color.Color, grid.Degree)
	for v := 0; v < n; v++ {
		nbuf = topo.Neighbors(v, nbuf[:0])
		for i, u := range nbuf {
			cbuf[i] = cfg.At(u)
		}
		if nc := rule.Next(cfg.At(v), cbuf[:len(nbuf)]); nc != cfg.At(v) {
			cfg.Set(v, nc)
			changed++
		}
	}
	return changed
}

// TestRunAsyncParityWithNaivePath pins RunAsync's CSR-driven rule
// application bit-identical to the old interface-driven sweep, on every registered rule
// and topology kind (table-driven, seeded), including degenerate 2×n tori.
func TestRunAsyncParityWithNaivePath(t *testing.T) {
	sizes := [][2]int{{2, 5}, {5, 2}, {6, 7}}
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for seed := uint64(1); seed <= 2; seed++ {
					initial := randomColoring(seed, sz[0], sz[1], 4)
					const sweeps = 15
					res := eng.RunAsync(initial, AsyncOptions{MaxSweeps: sweeps, Order: AsyncRaster})

					want := initial.Clone()
					wantSweeps, fixed := 0, false
					for s := 1; s <= sweeps; s++ {
						wantSweeps = s
						if naiveAsyncSweep(topo, rule, want) == 0 {
							fixed = true
							break
						}
					}
					label := name + "/" + topo.Name() + "/" + topo.Dims().String()
					if !res.Final.Equal(want) {
						t.Fatalf("%s: CSR async path diverged from the naive path", label)
					}
					if res.Sweeps != wantSweeps || res.FixedPoint != fixed {
						t.Fatalf("%s: sweeps/fixed (%d,%v) vs naive (%d,%v)",
							label, res.Sweeps, res.FixedPoint, wantSweeps, fixed)
					}
				}
			}
		}
	}
}

func TestRunAsyncDimensionMismatchPanics(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine(topo, rules.SMP{}).RunAsync(color.NewColoring(grid.MustDims(5, 5), 1), AsyncOptions{})
}
