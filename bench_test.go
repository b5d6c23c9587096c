// Benchmarks that regenerate every table and figure of the paper (one
// benchmark per experiment of the E01..E18 index in DESIGN.md), plus
// micro-benchmarks of the simulation engine, the constructions and the
// padding solver.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks exist so that regenerating the paper's results
// is part of the standard tooling: each iteration rebuilds the corresponding
// experiment table from scratch.
package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro/dynmon"
	"repro/internal/analysis"
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
	"repro/internal/tvg"
)

// benchExperiment runs one experiment generator per iteration and reports
// the number of table rows it produced.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := analysis.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	rows := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := exp.Run()
		rows = len(table.Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE01MeshBounds(b *testing.B)      { benchExperiment(b, "E01") }
func BenchmarkE02Figure1(b *testing.B)         { benchExperiment(b, "E02") }
func BenchmarkE03Theorem2(b *testing.B)        { benchExperiment(b, "E03") }
func BenchmarkE04Counterexamples(b *testing.B) { benchExperiment(b, "E04") }
func BenchmarkE05Cordalis(b *testing.B)        { benchExperiment(b, "E05") }
func BenchmarkE06Serpentinus(b *testing.B)     { benchExperiment(b, "E06") }
func BenchmarkE07MeshRounds(b *testing.B)      { benchExperiment(b, "E07") }
func BenchmarkE08SpiralRounds(b *testing.B)    { benchExperiment(b, "E08") }
func BenchmarkE09Figure5(b *testing.B)         { benchExperiment(b, "E09") }
func BenchmarkE10Figure6(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11Proposition3(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12RuleComparison(b *testing.B)  { benchExperiment(b, "E12") }
func BenchmarkE13ScaleFree(b *testing.B)       { benchExperiment(b, "E13") }
func BenchmarkE14TimeVarying(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15Scalability(b *testing.B)     { benchExperiment(b, "E15") }
func BenchmarkE16PaddingAblation(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17SubBoundSearch(b *testing.B)  { benchExperiment(b, "E17") }
func BenchmarkE18Propagation(b *testing.B)     { benchExperiment(b, "E18") }

// randomColoring builds a reproducible random coloring for the engine
// benchmarks.
func randomColoring(seed uint64, dims grid.Dims, colors int) *color.Coloring {
	src := rng.New(seed)
	p := color.MustPalette(colors)
	return color.RandomColoring(dims, p, func() int { return src.Intn(p.K) })
}

// BenchmarkEngineStepSequential measures single-round throughput of the
// sequential stepper on random colorings.
func BenchmarkEngineStepSequential(b *testing.B) {
	for _, size := range []int{32, 64, 128, 256} {
		b.Run(grid.MustDims(size, size).String(), func(b *testing.B) {
			topo := grid.MustNew(grid.KindToroidalMesh, size, size)
			eng := sim.NewEngine(topo, rules.SMP{})
			cur := randomColoring(1, topo.Dims(), 5)
			next := cur.Clone()
			b.SetBytes(int64(topo.Dims().N()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Step(cur, next)
				cur, next = next, cur
			}
		})
	}
}

// BenchmarkEngineStepParallel measures single-round throughput of the
// striped parallel stepper, from cache-resident tori to the 4096x4096 torus
// whose working set dwarfs any single cache hierarchy.  The CI gate requires
// the 4-worker 4096x4096 step to beat the 1-worker step by at least 2x
// within the same run.  StepParallel looks colors up in the engine's rule
// table, so the 1-worker 256x256 step is the tabulated round on the
// coloring BenchmarkEngineStepSequential/256x256 steps through the oracle;
// a second CI gate requires it to be at least 3x faster.  Steady-state striped stepping is allocation-free
// (pinned by TestParallelStepDoesNotAllocate and by the CI zero-alloc gate
// on this benchmark): the warm-up step below moves the one-time allocation
// of the engine's run state out of the timed window, and the explicit GC
// keeps a collection triggered by setup debt out of it too.  The second
// warm-up step refills the runtime's central cache of wait records, which
// that GC empties: the first WaitGroup wait after it allocates a 96-byte
// record, and on the large tori a run can time a single step, so it would
// otherwise show as bytes per step.
func BenchmarkEngineStepParallel(b *testing.B) {
	for _, c := range []struct {
		size    int
		workers []int
	}{
		{128, []int{2, 4, 8}},
		{256, []int{1, 2, 4, 8}},
		{1024, []int{1, 2, 4, 8}},
		{4096, []int{1, 2, 4, 8}},
	} {
		for _, workers := range c.workers {
			name := grid.MustDims(c.size, c.size).String() + "-workers" + string(rune('0'+workers))
			b.Run(name, func(b *testing.B) {
				topo := grid.MustNew(grid.KindToroidalMesh, c.size, c.size)
				eng := sim.NewEngine(topo, rules.SMP{})
				cur := randomColoring(1, topo.Dims(), 5)
				next := cur.Clone()
				eng.StepParallel(cur, next, workers)
				runtime.GC()
				eng.StepParallel(cur, next, workers)
				b.SetBytes(int64(topo.Dims().N()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.StepParallel(cur, next, workers)
					cur, next = next, cur
				}
			})
		}
	}
}

// BenchmarkEngineStepBitplane measures single-round throughput of the
// word-parallel bit-sliced stepper on random colorings (SMP rule; the
// two-color case runs on one plane, the four-color case on two).  The
// acceptance bar — and the CI gate — is that the 256x256 two-color step is
// at least 8x faster in ns/op than BenchmarkEngineStepSequential/256x256
// within the same run, at 0 allocs/op steady state.
func BenchmarkEngineStepBitplane(b *testing.B) {
	for _, size := range []int{64, 256} {
		for _, colors := range []int{2, 4} {
			name := grid.MustDims(size, size).String()
			if colors != 2 {
				name += "-k4"
			}
			b.Run(name, func(b *testing.B) {
				topo := grid.MustNew(grid.KindToroidalMesh, size, size)
				eng := sim.NewEngine(topo, rules.SMP{})
				bp, err := eng.NewBitplane(randomColoring(1, topo.Dims(), colors))
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(topo.Dims().N()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bp.Step()
				}
			})
		}
	}
}

// BenchmarkEngineStepNearConvergence measures the regime the frontier
// stepper was built for: a 64×64 torus whose dynamics have localized to a
// handful of cells (a period-2 Prefer-Black oscillator — two diagonal black
// cells trading places with their anti-diagonal forever), the steady state
// of late-convergence rounds.  The sweep still re-evaluates all 4096
// vertices per round; the frontier re-evaluates only the ~16 dirty ones.
// The CI gate watches both: the ratio is the frontier's reason to exist
// (≥3× is the acceptance floor; in practice it is orders of magnitude), and
// the frontier case must stay at 0 allocs/op.
func BenchmarkEngineStepNearConvergence(b *testing.B) {
	topo := grid.MustNew(grid.KindToroidalMesh, 64, 64)
	eng := sim.NewEngine(topo, rules.SimpleMajorityPB{Black: 2})
	initial := color.NewColoring(topo.Dims(), 1)
	initial.SetRC(20, 20, 2)
	initial.SetRC(21, 21, 2)

	b.Run("sweep-64x64", func(b *testing.B) {
		cur, next := initial.Clone(), initial.Clone()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if eng.Step(cur, next) == 0 {
				b.Fatal("oscillator died")
			}
			cur, next = next, cur
		}
	})
	b.Run("frontier-64x64", func(b *testing.B) {
		f := eng.NewFrontier(initial)
		f.Step()
		f.Step()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f.Step() == 0 {
				b.Fatal("oscillator died")
			}
		}
	})
}

// BenchmarkEngineStepFrontierConvergence measures a whole dynamo run on the
// frontier stepper against the full-sweep oracle (the Theorem 7 workload,
// where the wave narrows round after round).
func BenchmarkEngineStepFrontierConvergence(b *testing.B) {
	cons, err := dynamo.MeshMinimum(64, 64, 1, color.MustPalette(5))
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(cons.Topology, rules.SMP{})
	for _, bench := range []struct {
		name string
		opt  sim.Options
	}{
		{"frontier-64x64", sim.Options{Target: 1, StopWhenMonochromatic: true}},
		{"sweep-64x64", sim.Options{Target: 1, StopWhenMonochromatic: true, Kernel: sim.KernelSweep}},
	} {
		b.Run(bench.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := eng.Run(cons.Coloring, bench.opt)
				if !res.Monochromatic {
					b.Fatal("construction failed to converge")
				}
			}
		})
	}
}

// BenchmarkSMPRule measures the rule evaluation itself.
func BenchmarkSMPRule(b *testing.B) {
	neighborhoods := [][]color.Color{
		{1, 1, 1, 1},
		{1, 1, 2, 3},
		{1, 1, 2, 2},
		{1, 2, 3, 4},
		{2, 2, 2, 5},
	}
	rule := rules.SMP{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rule.Next(5, neighborhoods[i%len(neighborhoods)])
	}
}

// BenchmarkRunToConvergence measures full dynamo runs (the workload behind
// Theorems 7 and 8).
func BenchmarkRunToConvergence(b *testing.B) {
	for _, size := range []int{16, 32, 64} {
		b.Run(grid.MustDims(size, size).String(), func(b *testing.B) {
			cons, err := dynamo.MeshMinimum(size, size, 1, color.MustPalette(5))
			if err != nil {
				b.Fatal(err)
			}
			eng := sim.NewEngine(cons.Topology, rules.SMP{})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := eng.Run(cons.Coloring, sim.Options{Target: 1, StopWhenMonochromatic: true})
				if !res.Monochromatic {
					b.Fatal("construction failed to converge")
				}
			}
		})
	}
}

// BenchmarkConstruction measures how long the tight constructions (including
// the padding search) take to build.
func BenchmarkConstruction(b *testing.B) {
	cases := []struct {
		name string
		kind grid.Kind
		m, n int
	}{
		{"mesh-16x16", grid.KindToroidalMesh, 16, 16},
		{"mesh-32x32", grid.KindToroidalMesh, 32, 32},
		{"cordalis-16x16", grid.KindTorusCordalis, 16, 16},
		{"serpentinus-16x16", grid.KindTorusSerpentinus, 16, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dynamo.Minimum(c.kind, c.m, c.n, 1, color.MustPalette(5)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPaddingSolver measures the randomized greedy padding solver on
// the full-cross seed.
func BenchmarkPaddingSolver(b *testing.B) {
	topo := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	seed := color.NewColoring(topo.Dims(), color.None)
	seed.FillRow(0, 1)
	seed.FillCol(0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dynamo.SolvePadding(topo, seed, 1, color.MustPalette(5), rng.New(uint64(i)), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBlocksDetection measures k-block / non-k-block detection, the
// structural analysis behind Lemma 2.
func BenchmarkBlocksDetection(b *testing.B) {
	cons, err := dynamo.MeshMinimum(32, 32, 1, color.MustPalette(5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dynamo.CheckTheoremConditions(cons); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleFreeSpread measures the general-graph engine on a
// Barabási–Albert network (experiment E13's inner loop).
func BenchmarkScaleFreeSpread(b *testing.B) {
	g, err := graphs.NewBarabasiAlbert(1000, 2, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	seed := graphs.SeedTopByDegree(g, 20, 1, 2)
	rule := rules.Threshold{Target: 1, Theta: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graphs.Run(g, rule, seed, 1, 500)
	}
}

// legacyGraphSweep is one round of the deleted pre-engine graphs.Run loop —
// a full sweep of every vertex, gathering each neighborhood into a scratch
// slice — preserved here as the baseline the unified engine is gated
// against.
func legacyGraphSweep(g *graphs.Graph, rule rules.Rule, cur, next *graphs.Coloring, scratch []color.Color) int {
	changed := 0
	for v := 0; v < g.N(); v++ {
		scratch = scratch[:0]
		for _, u := range g.Neighbors(v) {
			scratch = append(scratch, cur.At(u))
		}
		nc := rule.Next(cur.At(v), scratch)
		next.Set(v, nc)
		if nc != cur.At(v) {
			changed++
		}
	}
	return changed
}

// blinkerBA10k builds the 10k-vertex Barabási–Albert benchmark substrate
// with an embedded 4-cycle Prefer-Black blinker: two opposite cycle
// vertices black, two white, trading places every round forever while the
// rest of the graph stays quiet.  The gadget (pinned by
// TestBlinkerOscillatesForever on the small variant) gives the
// near-convergence benchmarks a deterministic workload whose dirty
// frontier stays a handful of vertices wide — the regime the frontier tier
// exists for, and the regime where the legacy loop's full sweeps waste the
// most work.
func blinkerBA10k(b *testing.B) (*graphs.Graph, *graphs.Coloring) {
	b.Helper()
	g, err := graphs.NewBarabasiAlbert(10000, 2, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	var gadget [4]int
	count := 0
	used := map[int]bool{}
	for v := g.N() - 1; v >= 0 && count < 4; v-- {
		if g.Degree(v) != 2 || used[v] {
			continue
		}
		clash := false
		for _, u := range g.Neighbors(v) {
			if used[u] {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		gadget[count] = v
		used[v] = true
		for _, u := range g.Neighbors(v) {
			used[u] = true
		}
		count++
	}
	if count < 4 {
		b.Fatal("could not embed the blinker gadget; change the generator seed")
	}
	u, a, v, w := gadget[0], gadget[1], gadget[2], gadget[3]
	g.AddEdge(u, a)
	g.AddEdge(a, v)
	g.AddEdge(v, w)
	g.AddEdge(w, u)
	c := graphs.NewColoring(g.N(), 1)
	c.Set(a, 2)
	c.Set(w, 2)
	return g, c
}

// BenchmarkEngineStepGraphNearConvergence is the general-graph analogue of
// BenchmarkEngineStepNearConvergence, and the acceptance gate of the
// unified-engine port: on a 10k-vertex Barabási–Albert graph whose
// dynamics have localized to the 4-vertex blinker, the engine's frontier
// step must beat one round of the legacy full-sweep loop by at least 10x
// (CI gates the within-run ratio; in practice it is orders of magnitude),
// at 0 allocs/op steady state (pinned by TestGraphFrontierStepDoesNotAllocate
// and watched by -benchmem here).
func BenchmarkEngineStepGraphNearConvergence(b *testing.B) {
	rule := rules.SimpleMajorityPB{Black: 2}

	b.Run("legacy-sweep-ba10k", func(b *testing.B) {
		g, initial := blinkerBA10k(b)
		cur, next := initial.Clone(), initial.Clone()
		scratch := make([]color.Color, 0, g.MaxDegree())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if legacyGraphSweep(g, rule, cur, next, scratch) == 0 {
				b.Fatal("blinker died")
			}
			cur, next = next, cur
		}
	})
	b.Run("frontier-ba10k", func(b *testing.B) {
		g, initial := blinkerBA10k(b)
		f := g.EngineFor(rule).NewFrontier(initial)
		f.Step()
		f.Step()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if f.Step() == 0 {
				b.Fatal("blinker died")
			}
		}
	})
}

// BenchmarkEngineRunGraphBA10k measures whole runs on the 10k-vertex
// Barabási–Albert graph — an irreversible threshold cascade from 20 hub
// seeds to its fixed point — through the unified engine and through the
// legacy full-sweep loop it replaced.
func BenchmarkEngineRunGraphBA10k(b *testing.B) {
	build := func(b *testing.B) (*graphs.Graph, *graphs.Coloring) {
		b.Helper()
		g, err := graphs.NewBarabasiAlbert(10000, 2, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		return g, graphs.SeedTopByDegree(g, 20, 1, 2)
	}
	rule := rules.Threshold{Target: 1, Theta: 2}

	b.Run("engine", func(b *testing.B) {
		g, seed := build(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := graphs.Run(g, rule, seed, 1, 0)
			if !res.FixedPoint {
				b.Fatal("cascade did not freeze")
			}
		}
	})
	b.Run("legacy", func(b *testing.B) {
		g, seed := build(b)
		scratch := make([]color.Color, 0, g.MaxDegree())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cur, next := seed.Clone(), seed.Clone()
			rounds := 0
			for round := 1; round <= 4*g.N()+16; round++ {
				rounds = round
				if legacyGraphSweep(g, rule, cur, next, scratch) == 0 {
					break
				}
				cur, next = next, cur
			}
			if rounds >= 4*g.N()+16 {
				b.Fatal("cascade did not freeze")
			}
		}
	})
}

// BenchmarkTimeVaryingRun measures the engine's time-varying run mode
// (experiment E14's inner loop).
func BenchmarkTimeVaryingRun(b *testing.B) {
	cons, err := dynamo.MeshMinimum(9, 9, 1, color.MustPalette(5))
	if err != nil {
		b.Fatal(err)
	}
	eng := sim.NewEngine(cons.Topology, rules.SMP{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(cons.Coloring, sim.Options{
			TimeVarying:           tvg.Bernoulli{P: 0.95, Seed: uint64(i)},
			MaxRounds:             2000,
			StopWhenMonochromatic: true,
		})
	}
}

// BenchmarkRunBatchBitsliced measures the bit-sliced ensemble tier: 64
// replicas packed one-per-bit into each vertex's word and stepped together,
// against 64 scalar runs of the same replicas under a fixed round budget
// (so every variant executes exactly the same number of rounds and the
// comparison is pure per-round throughput, free of termination skew).
//
// The CI gate pairs sliced-256x256 against scalar-sweep-256x256 — the
// per-run loop the batch tier replaces — and requires the sliced batch to
// be at least 8x faster within the same run (in practice ~40x).  The
// scalar-auto variants run each replica on its auto-selected tier and are
// informational.  On the graph that is the frontier, and slicing wins
// ~6-8x.  On the torus it is the bitplane tier, which downshifts to the
// frontier mid-run, and the downshift, not slicing, makes up the gap: on a
// 2-core Intel Xeon (GOMAXPROCS 2, Go 1.24.0) scalar-auto-256x256 took
// 392-488 ms and 141-155 ms with the downshift disabled (3 runs each), and
// sliced-256x256, which gathers neighbor words by the torus's shift plan,
// 113-138 ms against 138-156 ms through the CSR index (3 alternated runs
// of 10 batches each).  The fallback-ba10k pair documents
// the ineligible path: a Barabási–Albert substrate under generalized-smp
// is not bit-sliceable, so Session.RunBatch falls back to the per-run
// scalar loop and must stay at parity with calling Run directly.
func BenchmarkRunBatchBitsliced(b *testing.B) {
	const lanes = 64
	const rounds = 48
	ctx := context.Background()

	// 256×256 torus, SMP, two colors: the bitplane-eligible regime.
	torus := func(b *testing.B) (*sim.Engine, []*color.Coloring) {
		b.Helper()
		topo := grid.MustNew(grid.KindToroidalMesh, 256, 256)
		eng := sim.NewEngine(topo, rules.SMP{})
		initials := make([]*color.Coloring, lanes)
		for r := range initials {
			initials[r] = randomColoring(uint64(r+1), topo.Dims(), 2)
		}
		return eng, initials
	}
	b.Run("sliced-256x256", func(b *testing.B) {
		eng, initials := torus(b)
		opt := sim.Options{MaxRounds: rounds}
		b.SetBytes(int64(lanes * 256 * 256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			results, err := eng.RunBatchSliced(ctx, initials, opt)
			if err != nil {
				b.Fatal(err)
			}
			if len(results) != lanes {
				b.Fatal("short batch")
			}
		}
	})
	b.Run("scalar-sweep-256x256", func(b *testing.B) {
		eng, initials := torus(b)
		opt := sim.Options{MaxRounds: rounds, Kernel: sim.KernelSweep}
		b.SetBytes(int64(lanes * 256 * 256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < lanes; r++ {
				eng.Run(initials[r], opt)
			}
		}
	})
	b.Run("scalar-auto-256x256", func(b *testing.B) {
		eng, initials := torus(b)
		opt := sim.Options{MaxRounds: rounds}
		b.SetBytes(int64(lanes * 256 * 256))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < lanes; r++ {
				eng.Run(initials[r], opt)
			}
		}
	})

	// Circulant C_10000(1,2) under an irreversible threshold rule: a
	// general-graph substrate where slicing is still eligible.
	circulant := func(b *testing.B) (*sim.Engine, []*color.Coloring) {
		b.Helper()
		const n = 10000
		g := graphs.NewGraph(n)
		for v := 0; v < n; v++ {
			g.AddEdge(v, (v+1)%n)
			g.AddEdge(v, (v+2)%n)
		}
		eng := g.EngineFor(rules.Threshold{Target: 1, Theta: 2})
		initials := make([]*color.Coloring, lanes)
		for r := range initials {
			initials[r] = randomColoring(uint64(r+1), grid.Dims{Rows: 1, Cols: n}, 2)
		}
		return eng, initials
	}
	b.Run("sliced-circulant10k", func(b *testing.B) {
		eng, initials := circulant(b)
		opt := sim.Options{MaxRounds: rounds}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.RunBatchSliced(ctx, initials, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar-auto-circulant10k", func(b *testing.B) {
		eng, initials := circulant(b)
		opt := sim.Options{MaxRounds: rounds}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < lanes; r++ {
				eng.Run(initials[r], opt)
			}
		}
	})

	// BA-10k: irregular substrate under generalized-smp — slice-ineligible,
	// so the batch API's transparent fallback carries it.  The pair pins the
	// fallback at parity with direct scalar runs (Session with one worker,
	// so pool parallelism cannot mask overhead).
	ba := func(b *testing.B) (*dynmon.System, []*dynmon.Coloring) {
		b.Helper()
		sys, err := dynmon.New(dynmon.BarabasiAlbert(10000, 2, 1), dynmon.Colors(2))
		if err != nil {
			b.Fatal(err)
		}
		initials := make([]*dynmon.Coloring, lanes)
		for r := range initials {
			initials[r] = sys.RandomColoring(uint64(r + 1))
		}
		return sys, initials
	}
	runSpec := dynmon.RunSpec{MaxRounds: rounds}
	b.Run("fallback-ba10k", func(b *testing.B) {
		sys, initials := ba(b)
		se := sys.NewSession(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := se.RunBatch(ctx, initials, dynmon.WithRunSpec(runSpec)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scalar-ba10k", func(b *testing.B) {
		sys, initials := ba(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := 0; r < lanes; r++ {
				if _, err := sys.Run(ctx, initials[r], dynmon.WithRunSpec(runSpec)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkEnsemble measures the Monte-Carlo ensemble harness end to end:
// spec in, aggregated takeover report out.  The deterministic variant's
// replicas share one run spec and ride the bit-sliced batch tier; the noisy
// variant derives per-replica fault streams and runs replica-at-a-time on
// the bitplane tier with word-parallel fault masks — the two regimes the
// dynserve /v1/ensembles endpoint serves.  noisy-sweep is the same noisy
// ensemble forced onto the scalar sweep, the within-run reference for the
// bitplane fault path.
//
// The -workers1 pair gates the sliced ensemble path, tile build included:
// deterministic-64x64-workers1 is one 32-lane tile, and
// deterministic-sweep-64x64-workers1 forces the scalar sweep, which the
// sliced tier refuses, so each replica is built and stepped alone.  Both
// run on one worker, because the fast side is a single tile: with a
// GOMAXPROCS pool only the slow side would spread, and the ratio would
// grow with the runner's core count.
func BenchmarkEnsemble(b *testing.B) {
	base := func() *dynmon.EnsembleSpec {
		return &dynmon.EnsembleSpec{
			System: dynmon.Spec{
				Substrate: dynmon.SubstrateSpec{
					Topology: &dynmon.TopologySpec{Name: "toroidal-mesh", Rows: 64, Cols: 64},
				},
				Colors: 2,
				Rule:   "smp",
			},
			Initial:  dynmon.InitialSpec{Config: "bernoulli", Density: 0.55},
			Run:      dynmon.RunSpec{MaxRounds: 24, Target: 1},
			Replicas: 32,
			Seed:     1,
		}
	}
	run := func(b *testing.B, spec *dynmon.EnsembleSpec, workers int) {
		b.Helper()
		ens, err := dynmon.NewEnsemble(spec, workers)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(spec.Replicas * 64 * 64))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			report, err := ens.Run(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			if len(report.Points) == 0 {
				b.Fatal("empty report")
			}
		}
	}
	b.Run("deterministic-64x64", func(b *testing.B) {
		run(b, base(), 0)
	})
	b.Run("deterministic-64x64-workers1", func(b *testing.B) {
		run(b, base(), 1)
	})
	b.Run("deterministic-sweep-64x64-workers1", func(b *testing.B) {
		spec := base()
		spec.Run.Kernel = "sweep"
		run(b, spec, 1)
	})
	noisy := func() *dynmon.EnsembleSpec {
		spec := base()
		spec.Run.Noise = &dynmon.NoiseSpec{Eps: 0.02}
		spec.TakeoverFraction = 0.75
		return spec
	}
	b.Run("noisy-64x64", func(b *testing.B) {
		run(b, noisy(), 0)
	})
	b.Run("noisy-sweep-64x64", func(b *testing.B) {
		spec := noisy()
		spec.Run.Kernel = "sweep"
		run(b, spec, 0)
	})
}
