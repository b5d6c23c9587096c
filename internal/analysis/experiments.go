package analysis

import (
	"fmt"
	"time"

	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/search"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tvg"
)

// Experiment is one entry of the per-experiment index in DESIGN.md: a
// generator that reproduces one table or figure of the paper.
type Experiment struct {
	// ID is the experiment identifier (E01..E18).
	ID string
	// Title is a one-line description.
	Title string
	// Paper describes what the paper reports for this experiment.
	Paper string
	// Run regenerates the experiment and returns its table.
	Run func() *Table
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E01", "Toroidal mesh lower bound and tightness (Theorem 1)", "|Sk| >= m+n-2, achieved exactly", E01MeshBounds},
		{"E02", "Figure 1: a monotone dynamo of size m+n-2 on a 9x9 mesh", "a dynamo of 16 black vertices", E02Figure1},
		{"E03", "Theorem 2 construction across sizes and palettes", "tight monotone dynamos with |C| >= 4", E03Theorem2},
		{"E04", "Figures 3-4: configurations that are not dynamos", "blocked and frozen configurations", E04Counterexamples},
		{"E05", "Torus cordalis bounds (Theorems 3-4)", "|Sk| = n+1 tight", E05Cordalis},
		{"E06", "Torus serpentinus bounds (Theorems 5-6)", "|Sk| = min(m,n)+1 tight", E06Serpentinus},
		{"E07", "Round count on the mesh (Theorem 7)", "2*max(ceil((n-1)/2)-1, ceil((m-1)/2)-1)+1", E07MeshRounds},
		{"E08", "Round count on the spiral tori (Theorem 8)", "(floor((m-1)/2)-1)*n + ceil(n/2) or +1", E08SpiralRounds},
		{"E09", "Figure 5: 5x5 mesh recoloring-time matrix", "exact matrix", E09Figure5},
		{"E10", "Figure 6: 5x5 cordalis recoloring-time matrix", "exact matrix", E10Figure6},
		{"E11", "Proposition 3: colors needed vs min(m,n)", "|C| >= N for 1 < N <= 3", E11Proposition3},
		{"E12", "SMP vs the rules of [15] (Remark 1, Propositions 1-2)", "SMP restricted to 2 colors differs from [15]", E12RuleComparison},
		{"E13", "Extension: SMP and TSS baselines on scale-free graphs", "open problem in the conclusions", E13ScaleFree},
		{"E14", "Extension: dynamos under intermittent links", "open problem in the conclusions", E14TimeVarying},
		{"E15", "Engine scalability (parallel stepping)", "not in the paper; engineering harness", E15Scalability},
		{"E16", "Ablation: padding designs and the Theorem 2 hypothesis gap", "design-choice ablation", E16PaddingAblation},
		{"E17", "Search for monotone dynamos below the Theorem 1 bound", "Theorem 1 claims none exist", E17SubBoundSearch},
		{"E18", "Propagation pattern: diagonal wave vs row-by-row sweep (Section III.D)", "corners-to-center vs row propagation", E18PropagationPattern},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

func pal(k int) color.Palette { return color.MustPalette(k) }

// E01MeshBounds verifies Theorem 1 on a size sweep: the constructed dynamo
// matches the m+n-2 lower bound, and random seeds one vertex below the bound
// essentially never take over.
func E01MeshBounds() *Table {
	t := NewTable("E01  Toroidal mesh: dynamo size vs the Theorem 1 lower bound",
		"m", "n", "lower bound", "construction size", "monotone dynamo",
		"undersized random seeds: dynamo", "undersized random seeds: monotone dynamo")
	sizes := [][2]int{{4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}, {9, 9}, {12, 12}, {16, 16}, {6, 9}, {12, 7}}
	for _, s := range sizes {
		m, n := s[0], s[1]
		rec := RunPoint(Point{Kind: grid.KindToroidalMesh, M: m, N: n, Colors: 5})
		src := rng.New(uint64(m*100 + n))
		topo := grid.MustNew(grid.KindToroidalMesh, m, n)
		eng := sim.NewEngine(topo, rules.SMP{})
		wins, monotoneWins := 0, 0
		const trials = 15
		for i := 0; i < trials; i++ {
			c := dynamo.RandomSeedColoring(topo, rec.LowerBound-1, 1, pal(5), func(b int) int { return src.Intn(b) })
			v := dynamo.VerifyWith(eng, c, 1)
			if v.IsDynamo {
				wins++
				if v.Monotone {
					monotoneWins++
				}
			}
		}
		t.AddRow(itoa(m), itoa(n), itoa(rec.LowerBound), itoa(rec.SeedSize),
			boolMark(rec.IsDynamo && rec.Monotone),
			fmt.Sprintf("%d/%d", wins, trials), fmt.Sprintf("%d/%d", monotoneWins, trials))
	}
	t.Note = "Theorem 1 bounds monotone dynamos; our constructions always match it exactly. Deviation: on tori with min(m,n) <= 5 random search even finds *monotone* dynamos below the bound (e.g. size 4 on the 4x4 mesh), so the bound does not hold for small tori as stated — see EXPERIMENTS.md. For min(m,n) >= 6 no undersized monotone dynamo was found."
	return t
}

// E02Figure1 reproduces Figure 1: a monotone dynamo of 16 vertices on the
// 9x9 toroidal mesh.
func E02Figure1() *Table {
	t := NewTable("E02  Figure 1: monotone dynamo of size m+n-2 on a 9x9 toroidal mesh",
		"quantity", "paper", "measured")
	c, err := dynamo.Figure1(1, pal(5))
	if err != nil {
		t.Note = "construction failed: " + err.Error()
		return t
	}
	v := dynamo.Verify(c)
	t.AddRow("seed size", "16", itoa(c.SeedSize()))
	t.AddRow("is a dynamo", "yes", boolMark(v.IsDynamo))
	t.AddRow("is monotone", "yes", boolMark(v.Monotone))
	t.AddRow("rounds to monochromatic", "-", itoa(v.Rounds))
	return t
}

// E03Theorem2 sweeps sizes and palettes for the Theorem 2 construction,
// reporting whether the padding hypotheses hold and whether the
// configuration is a monotone dynamo.
func E03Theorem2() *Table {
	t := NewTable("E03  Theorem 2 construction: tight monotone dynamos on the toroidal mesh",
		"m", "n", "|C|", "built", "size", "conditions hold", "monotone dynamo", "rounds")
	sizes := [][2]int{{4, 4}, {5, 5}, {6, 6}, {7, 7}, {9, 9}, {12, 12}, {6, 9}, {9, 6}, {7, 12}}
	for _, s := range sizes {
		for _, colors := range []int{4, 5, 6} {
			rec := RunPoint(Point{Kind: grid.KindToroidalMesh, M: s[0], N: s[1], Colors: colors})
			if rec.Err != nil {
				t.AddRow(itoa(s[0]), itoa(s[1]), itoa(colors), "no", "-", "-", "-", "-")
				continue
			}
			t.AddRow(itoa(s[0]), itoa(s[1]), itoa(colors), "yes", itoa(rec.SeedSize),
				boolMark(rec.ConditionsOK), boolMark(rec.IsDynamo && rec.Monotone), itoa(rec.Rounds))
		}
	}
	t.Note = "\"built=no\" rows are sizes where no padding with that palette satisfies the hypotheses plus seed safety (e.g. 4 colors with m ≡ n ≡ 2 mod 3); the paper's Figure 2 pattern is not specified precisely enough to resolve them"
	return t
}

// E04Counterexamples reproduces the Figure 3/4 style configurations that are
// not dynamos.
func E04Counterexamples() *Table {
	t := NewTable("E04  Non-dynamo configurations (Figures 3 and 4)",
		"configuration", "seed size", "reaches monochromatic", "rounds simulated", "stuck reason")
	if c, err := dynamo.BlockedCross(8, 8, 1, pal(5)); err == nil {
		v := dynamo.Verify(c)
		t.AddRow(c.Name, itoa(c.SeedSize()), boolMark(v.IsDynamo), itoa(v.Rounds), "planted 2x2 foreign block never recolors")
	}
	if c, err := dynamo.FrozenTiling(8, 8, 1, pal(4)); err == nil {
		v := dynamo.Verify(c)
		t.AddRow(c.Name, itoa(c.SeedSize()), boolMark(v.IsDynamo), itoa(v.Rounds), "every vertex sees a tie or its own pair: no recoloring at all")
	}
	if c, err := dynamo.UndersizedSeed(8, 8, 1, pal(5)); err == nil {
		v := dynamo.Verify(c)
		t.AddRow(c.Name, itoa(c.SeedSize()), boolMark(v.IsDynamo), itoa(v.Rounds), "seed below the Theorem 1 bound cannot reach the last columns")
	}
	return t
}

// E05Cordalis verifies Theorems 3-4 on the torus cordalis.
func E05Cordalis() *Table {
	t := NewTable("E05  Torus cordalis: dynamo size vs the Theorem 3 lower bound",
		"m", "n", "lower bound n+1", "construction size", "conditions hold", "monotone dynamo", "rounds", "Theorem 8 prediction")
	sizes := [][2]int{{4, 4}, {5, 5}, {6, 6}, {7, 7}, {8, 8}, {9, 9}, {9, 5}, {6, 8}, {12, 6}, {7, 12}}
	for _, s := range sizes {
		rec := RunPoint(Point{Kind: grid.KindTorusCordalis, M: s[0], N: s[1], Colors: 5})
		if rec.Err != nil {
			t.AddRow(itoa(s[0]), itoa(s[1]), itoa(rec.LowerBound), "error", "-", "-", "-", itoa(rec.Predicted))
			continue
		}
		t.AddRow(itoa(s[0]), itoa(s[1]), itoa(rec.LowerBound), itoa(rec.SeedSize),
			boolMark(rec.ConditionsOK), boolMark(rec.IsDynamo && rec.Monotone), itoa(rec.Rounds), itoa(rec.Predicted))
	}
	return t
}

// E06Serpentinus verifies Theorems 5-6 on the torus serpentinus, covering
// both the row-seeded (n <= m) and column-seeded (m < n) variants.
func E06Serpentinus() *Table {
	t := NewTable("E06  Torus serpentinus: dynamo size vs the Theorem 5 lower bound",
		"m", "n", "seed", "lower bound N+1", "construction size", "conditions hold", "monotone dynamo", "rounds")
	sizes := [][2]int{{4, 4}, {5, 5}, {6, 6}, {7, 7}, {9, 9}, {9, 6}, {7, 4}, {4, 7}, {6, 9}, {8, 12}}
	for _, s := range sizes {
		rec := RunPoint(Point{Kind: grid.KindTorusSerpentinus, M: s[0], N: s[1], Colors: 5})
		variant := "row"
		if s[0] < s[1] {
			variant = "column"
		}
		if rec.Err != nil {
			t.AddRow(itoa(s[0]), itoa(s[1]), variant, itoa(rec.LowerBound), "error", "-", "-", "-")
			continue
		}
		t.AddRow(itoa(s[0]), itoa(s[1]), variant, itoa(rec.LowerBound), itoa(rec.SeedSize),
			boolMark(rec.ConditionsOK), boolMark(rec.IsDynamo && rec.Monotone), itoa(rec.Rounds))
	}
	return t
}

// E07MeshRounds compares measured convergence times on the mesh against the
// Theorem 7 formula, for both the full-cross configuration (which the
// formula matches exactly on square tori) and the Theorem 2 minimum
// configuration.
func E07MeshRounds() *Table {
	t := NewTable("E07  Mesh convergence time vs Theorem 7",
		"m", "n", "Theorem 7 formula", "full-cross measured", "exact full-cross formula", "Theorem-2 config measured")
	sizes := [][2]int{{5, 5}, {7, 7}, {9, 9}, {11, 11}, {15, 15}, {6, 8}, {8, 6}, {9, 13}, {16, 16}}
	for _, s := range sizes {
		m, n := s[0], s[1]
		d := grid.MustDims(m, n)
		formula := dynamo.PredictedRoundsMesh(d)
		exact := dynamo.ExactRoundsFullCross(d)
		crossRounds, minRounds := -1, -1
		if c, err := dynamo.FullCross(m, n, 1, pal(5)); err == nil {
			crossRounds = dynamo.Verify(c).Rounds
		}
		if c, err := dynamo.MeshMinimum(m, n, 1, pal(5)); err == nil {
			minRounds = dynamo.Verify(c).Rounds
		}
		t.AddRow(itoa(m), itoa(n), itoa(formula), itoa(crossRounds), itoa(exact), itoa(minRounds))
	}
	t.Note = "the Theorem 7 formula matches the full cross exactly on square tori; on rectangular tori the exact value is ceil((m-1)/2)+ceil((n-1)/2)-1, and the minimum (m+n-2) configuration needs one extra round"
	return t
}

// E08SpiralRounds compares measured convergence times on the cordalis and
// serpentinus against the Theorem 8 formula.
func E08SpiralRounds() *Table {
	t := NewTable("E08  Spiral tori convergence time vs Theorem 8",
		"topology", "m", "n", "m parity", "Theorem 8 formula", "measured rounds")
	sizes := [][2]int{{5, 5}, {7, 5}, {9, 5}, {6, 5}, {8, 5}, {7, 7}, {9, 9}, {6, 6}, {8, 8}, {11, 7}}
	for _, kind := range []grid.Kind{grid.KindTorusCordalis, grid.KindTorusSerpentinus} {
		for _, s := range sizes {
			m, n := s[0], s[1]
			d := grid.MustDims(m, n)
			formula := dynamo.PredictedRounds(kind, d)
			rounds := -1
			if c, err := dynamo.Minimum(kind, m, n, 1, pal(5)); err == nil {
				rounds = dynamo.Verify(c).Rounds
			}
			parity := "odd"
			if m%2 == 0 {
				parity = "even"
			}
			t.AddRow(kind.String(), itoa(m), itoa(n), parity, itoa(formula), itoa(rounds))
		}
	}
	t.Note = "the odd-m formula tracks the measurements (exact on the 5x5 Figure 6 case); the even-m branch of Theorem 8 underestimates the measured times — see EXPERIMENTS.md"
	return t
}

// E09Figure5 compares the measured 5x5 mesh recoloring-time matrix against
// the paper's Figure 5.
func E09Figure5() *Table {
	t := NewTable("E09  Figure 5: recoloring times on the 5x5 toroidal mesh (full cross)",
		"row", "paper", "measured")
	c, err := dynamo.FullCross(5, 5, 1, pal(5))
	if err != nil {
		t.Note = "construction failed: " + err.Error()
		return t
	}
	measured, _ := TimingMatrix(c.Topology, c.Coloring, 1)
	ref := Figure5Reference()
	for i := range ref {
		t.AddRow(itoa(i), fmt.Sprint(ref[i]), fmt.Sprint(measured[i]))
	}
	t.AddRow("matches", "", boolMark(MatricesEqual(measured, ref)))
	return t
}

// E10Figure6 compares the measured 5x5 cordalis recoloring-time matrix
// against the paper's Figure 6.
func E10Figure6() *Table {
	t := NewTable("E10  Figure 6: recoloring times on the 5x5 torus cordalis (Theorem 4 seed)",
		"row", "paper", "measured")
	c, err := dynamo.CordalisMinimum(5, 5, 1, pal(6))
	if err != nil {
		t.Note = "construction failed: " + err.Error()
		return t
	}
	measured, _ := TimingMatrix(c.Topology, c.Coloring, 1)
	ref := Figure6Reference()
	for i := range ref {
		t.AddRow(itoa(i), fmt.Sprint(ref[i]), fmt.Sprint(measured[i]))
	}
	t.AddRow("matches", "", boolMark(MatricesEqual(measured, ref)))
	t.AddRow("max (= rounds)", itoa(MatrixMax(ref)), itoa(MatrixMax(measured)))
	if !MatricesEqual(measured, ref) {
		t.Note = fmt.Sprintf("%d of 25 entries differ (padding-dependent cells); the overall propagation pattern and the total round count are compared in the last row", MatrixDiffCount(measured, ref))
	}
	return t
}

// E11Proposition3 explores how many colors the small-torus dynamos need.
func E11Proposition3() *Table {
	t := NewTable("E11  Proposition 3: colors vs min(m,n)",
		"m", "n", "N=min(m,n)", "|C|", "seed", "seed size", "dynamo")
	// N = 2: a column on an m x 2 torus.
	for _, colors := range []int{2, 3} {
		topo := grid.MustNew(grid.KindToroidalMesh, 6, 2)
		c := color.NewColoring(topo.Dims(), color.None)
		c.FillCol(0, 1)
		others := pal(colors).Others(1)
		for i := 0; i < 6; i++ {
			c.SetRC(i, 1, others[i%len(others)])
		}
		v := dynamo.VerifyColoring(topo, c, 1)
		t.AddRow("6", "2", "2", itoa(colors), "column (size m)", itoa(c.Count(1)), boolMark(v.IsDynamo))
	}
	// N = 3: a single row is not enough (it leaves a non-k-block); the
	// L-shaped Theorem 2 seed works with >= 4 colors.
	{
		topo := grid.MustNew(grid.KindToroidalMesh, 3, 8)
		c := color.NewColoring(topo.Dims(), color.None)
		c.FillRow(0, 1)
		others := pal(4).Others(1)
		for i := 1; i < 3; i++ {
			for j := 0; j < 8; j++ {
				c.SetRC(i, j, others[(i-1)%len(others)])
			}
		}
		v := dynamo.VerifyColoring(topo, c, 1)
		t.AddRow("3", "8", "3", "4", "single row (size n)", itoa(c.Count(1)), boolMark(v.IsDynamo))
	}
	if c, err := dynamo.MeshMinimum(3, 8, 1, pal(4)); err == nil {
		v := dynamo.Verify(c)
		t.AddRow("3", "8", "3", "4", "row+column L-shape (m+n-2)", itoa(c.SeedSize()), boolMark(v.IsDynamo))
	}
	t.Note = "with two colors the 2-wide torus column seed freezes on ties; with three it takes over; for N=3 a single row leaves a non-k-block and only the L-shaped seed is a dynamo"
	return t
}

// E12RuleComparison contrasts the SMP-Protocol with the reverse simple and
// strong majority rules of [15] on identical two-color inputs.
func E12RuleComparison() *Table {
	t := NewTable("E12  SMP vs the bi-colored rules of [15] on identical inputs",
		"configuration", "rule", "reaches monochromatic", "monotone", "rounds")
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	cross := color.NewColoring(topo.Dims(), 2)
	cross.FillRow(0, 1)
	cross.FillCol(0, 1)
	rulesToTry := []rules.Rule{
		rules.SMP{},
		rules.IrreversibleSMP{Target: 1},
		rules.SimpleMajorityPB{Black: 1},
		rules.SimpleMajorityPC{},
		rules.StrongMajority{},
	}
	for _, r := range rulesToTry {
		v := dynamo.VerifyUnderRule(topo, cross, 1, r)
		t.AddRow("two-color cross on 6x6 mesh", r.Name(), boolMark(v.IsDynamo), boolMark(v.Monotone), itoa(v.Rounds))
	}
	// The comb upper-bound dynamo (Proposition 2) works under both SMP and
	// strong majority.
	if comb, err := dynamo.CombUpperBound(grid.KindToroidalMesh, 8, 8, 1, pal(4)); err == nil {
		for _, r := range []rules.Rule{rules.SMP{}, rules.StrongMajority{}} {
			v := dynamo.VerifyUnderRule(comb.Topology, comb.Coloring, 1, r)
			t.AddRow("comb upper bound on 8x8 mesh", r.Name(), boolMark(v.IsDynamo), boolMark(v.Monotone), itoa(v.Rounds))
		}
	}
	t.Note = "with two colors the SMP rule freezes on 2-2 ties while Prefer-Black takes over: the paper's Remark 1 (its rule does not reduce to [15])"
	return t
}

// E13ScaleFree runs the scale-free extension: seeding strategies and rules
// on a Barabási–Albert graph.
func E13ScaleFree() *Table {
	t := NewTable("E13  Extension: spreading on a Barabási–Albert graph (n=400, m=2)",
		"rule", "seeding", "seed size", "activated vertices", "activated fraction")
	g, err := graphs.NewBarabasiAlbert(400, 2, rng.New(7))
	if err != nil {
		t.Note = "graph generation failed: " + err.Error()
		return t
	}
	type combo struct {
		rule rules.Rule
		name string
	}
	combos := []combo{
		{rules.Threshold{Target: 1, Theta: 2}, "irreversible threshold (theta=2)"},
		{graphs.GeneralizedSMP{}, "generalized SMP"},
	}
	for _, cb := range combos {
		for _, seedSize := range []int{4, 8, 16, 40} {
			hub := graphs.Run(g, cb.rule, graphs.SeedTopByDegree(g, seedSize, 1, 2), 1, 600)
			rnd := graphs.Run(g, cb.rule, graphs.SeedRandom(g, seedSize, 1, 2, rng.New(uint64(seedSize))), 1, 600)
			t.AddRow(cb.name, "highest degree", itoa(seedSize), itoa(hub.TargetCount),
				fmt.Sprintf("%.2f", float64(hub.TargetCount)/float64(g.N())))
			t.AddRow(cb.name, "random", itoa(seedSize), itoa(rnd.TargetCount),
				fmt.Sprintf("%.2f", float64(rnd.TargetCount)/float64(g.N())))
		}
	}
	seeds := graphs.GreedyTargetSet(g, rules.Threshold{Target: 1, Theta: 2}, 1, 2, 12, 300, 25, rng.New(3))
	c := graphs.NewColoring(g.N(), 2)
	for _, v := range seeds {
		c.Set(v, 1)
	}
	res := graphs.Run(g, rules.Threshold{Target: 1, Theta: 2}, c, 1, 600)
	t.AddRow("irreversible threshold (theta=2)", "greedy TSS", itoa(len(seeds)), itoa(res.TargetCount),
		fmt.Sprintf("%.2f", float64(res.TargetCount)/float64(g.N())))
	t.Note = "hub and greedy seeding dominate random seeding under the irreversible threshold rule; the reversible generalized SMP rule barely spreads from small seeds, mirroring the torus behaviour"
	return t
}

// E14TimeVarying sweeps link availability and reports how often the
// Theorem 2 dynamo still takes over.
func E14TimeVarying() *Table {
	t := NewTable("E14  Extension: Theorem 2 dynamo under intermittent links (9x9 mesh)",
		"availability p", "runs", "monochromatic wins", "mean rounds when winning")
	c, err := dynamo.MeshMinimum(9, 9, 1, pal(5))
	if err != nil {
		t.Note = "construction failed: " + err.Error()
		return t
	}
	eng := sim.NewEngine(c.Topology, rules.SMP{})
	for _, p := range []float64{1.0, 0.99, 0.95, 0.9, 0.8, 0.6} {
		const runs = 10
		wins := 0
		var winRounds []float64
		for i := 0; i < runs; i++ {
			res := eng.Run(c.Coloring, sim.Options{
				TimeVarying:           tvg.Bernoulli{P: p, Seed: uint64(100*i) + 11},
				MaxRounds:             3000,
				StopWhenMonochromatic: true,
			})
			if res.Monochromatic && res.FinalColor == 1 {
				wins++
				winRounds = append(winRounds, float64(res.Rounds))
			}
		}
		mean := "-"
		if len(winRounds) > 0 {
			mean = fmt.Sprintf("%.1f", stats.Mean(winRounds))
		}
		t.AddRow(fmt.Sprintf("%.2f", p), itoa(runs), itoa(wins), mean)
	}
	t.Note = "below full availability the dynamo can lose seed vertices whose k-links are down and be absorbed by foreign blocks; the success rate degrades as availability drops"
	return t
}

// E15Scalability measures the synchronous engine's throughput with
// sequential and parallel stepping.
func E15Scalability() *Table {
	t := NewTable("E15  Engine throughput: vertex updates per second",
		"torus", "workers", "rounds", "wall time", "vertex updates/s")
	for _, size := range []int{64, 128} {
		topo := grid.MustNew(grid.KindToroidalMesh, size, size)
		eng := sim.NewEngine(topo, rules.SMP{})
		src := rng.New(uint64(size))
		p := pal(5)
		init := color.RandomColoring(topo.Dims(), p, func() int { return src.Intn(p.K) })
		for _, workers := range []int{1, 2, 4} {
			const rounds = 60
			cur := init.Clone()
			next := init.Clone()
			start := time.Now()
			// Every row steps through StepParallel, so the rows differ only
			// in the worker count; Step is the untabulated oracle.
			for r := 0; r < rounds; r++ {
				eng.StepParallel(cur, next, workers)
				cur, next = next, cur
			}
			elapsed := time.Since(start)
			updates := float64(rounds) * float64(topo.Dims().N())
			t.AddRow(fmt.Sprintf("%dx%d", size, size), itoa(workers), itoa(rounds),
				elapsed.Round(time.Microsecond).String(),
				fmt.Sprintf("%.0f", updates/elapsed.Seconds()))
		}
	}
	t.Note = "the parallel stepper is bit-identical to the sequential one; speedups are bounded by the small per-round work at these sizes (see also the testing.B benchmarks)"
	return t
}

// E16PaddingAblation compares padding designs for the Theorem 2 seed,
// including a padding that satisfies the paper's stated hypotheses but is
// not monotone (the hypothesis gap at the seed's concave corner).
func E16PaddingAblation() *Table {
	t := NewTable("E16  Ablation: padding designs for the 8x8 Theorem 2 seed",
		"padding", "satisfies stated hypotheses", "monotone", "dynamo", "rounds")
	m, n := 8, 8
	topo := grid.MustNew(grid.KindToroidalMesh, m, n)
	d := topo.Dims()
	k := color.Color(1)
	p := pal(5)
	others := p.Others(k)

	seed := color.NewColoring(d, color.None)
	seed.FillCol(0, k)
	for j := 1; j < n-1; j++ {
		seed.SetRC(0, j, k)
	}

	addRow := func(name string, full *color.Coloring) {
		condOK := dynamo.CheckTheoremConditions(&dynamo.Construction{
			Name: name, Topology: topo, Target: k, Palette: p,
			Seed: full.Vertices(k), Coloring: full,
		}) == nil
		v := dynamo.VerifyColoring(topo, full, k)
		t.AddRow(name, boolMark(condOK), boolMark(v.Monotone), boolMark(v.IsDynamo), itoa(v.Rounds))
	}

	// 1. The analytic construction used by MeshMinimum.
	if c, err := dynamo.MeshMinimum(m, n, k, p); err == nil {
		addRow("analytic row sequence (library default)", c.Coloring)
	}
	// 2. Solver-found padding.
	if full, err := dynamo.SolvePadding(topo, seed, k, p, rng.New(17), 0); err == nil {
		addRow("randomized greedy solver", full)
	}
	// 3. The hypothesis-gap padding of dynamo.StatedConditionsGap: every
	// non-k vertex satisfies the stated hypotheses, but the seed vertex next
	// to the missing corner defects in round 1.
	if gap, err := dynamo.StatedConditionsGap(m, n, k, p); err == nil {
		addRow("stated-hypotheses-only padding (corner gap)", gap.Coloring)
	}
	// 4. An invalid padding: a 2x2 block of one color in the interior.
	cycle := []color.Color{others[0], others[1], others[2]}
	bad := seed.Clone()
	for i := 1; i < m; i++ {
		for j := 1; j < n; j++ {
			bad.SetRC(i, j, cycle[(i-1)%3])
		}
	}
	bad.SetRC(0, n-1, others[3])
	for _, rc := range [][2]int{{4, 4}, {4, 5}, {5, 4}, {5, 5}} {
		bad.SetRC(rc[0], rc[1], others[2])
	}
	addRow("padding with a planted foreign block", bad)
	t.Note = "the third row satisfies the theorem's stated hypotheses yet is neither monotone nor a dynamo: the seed vertex next to the missing corner defects in round 1 and a foreign block forms around the corner; see EXPERIMENTS.md"
	return t
}

// E17SubBoundSearch looks for monotone dynamos strictly below the Theorem 1
// lower bound by random search, reproducing the small-torus counterexamples
// recorded in EXPERIMENTS.md.
func E17SubBoundSearch() *Table {
	t := NewTable("E17  Random search for monotone dynamos below the Theorem 1 bound",
		"m", "n", "Theorem 1 bound", "smallest monotone dynamo found", "bound violated")
	for _, s := range [][2]int{{4, 4}, {4, 5}, {5, 5}, {5, 6}, {6, 6}, {7, 7}} {
		topo := grid.MustNew(grid.KindToroidalMesh, s[0], s[1])
		bound := dynamo.LowerBound(grid.KindToroidalMesh, topo.Dims())
		best, _ := search.SmallestRandomDynamo(topo, bound, 1, pal(5),
			search.Options{Trials: 600, RequireMonotone: true, Seed: uint64(s[0]*100 + s[1])})
		label := "none"
		if best > 0 {
			label = itoa(best)
		}
		t.AddRow(itoa(s[0]), itoa(s[1]), itoa(bound), label, boolMark(best > 0 && best < bound))
	}
	t.Note = "Theorem 1's bound fails on tori with min(m,n) <= 5; for larger tori the random search finds nothing below the bound (which is consistent with, but does not prove, the bound)"
	return t
}

// E18PropagationPattern contrasts the growth of the k-colored set on the
// mesh (a wave moving over the diagonals from the corners to the center,
// Section III.D) with the row-by-row sweep on the torus cordalis.
func E18PropagationPattern() *Table {
	t := NewTable("E18  Per-round growth of the k-colored set (9x9 minimum constructions)",
		"round", "mesh: new k vertices", "cordalis: new k vertices")
	mesh, err := dynamo.MeshMinimum(9, 9, 1, pal(5))
	if err != nil {
		t.Note = "mesh construction failed: " + err.Error()
		return t
	}
	cord, err := dynamo.CordalisMinimum(9, 9, 1, pal(5))
	if err != nil {
		t.Note = "cordalis construction failed: " + err.Error()
		return t
	}
	meshInc := Increments(GrowthCurve(mesh.Topology, mesh.Coloring, 1))
	cordInc := Increments(GrowthCurve(cord.Topology, cord.Coloring, 1))
	rounds := len(meshInc)
	if len(cordInc) > rounds {
		rounds = len(cordInc)
	}
	cell := func(inc []int, i int) string {
		if i < len(inc) {
			return itoa(inc[i])
		}
		return "-"
	}
	for i := 0; i < rounds; i++ {
		t.AddRow(itoa(i+1), cell(meshInc, i), cell(cordInc, i))
	}
	t.AddRow("total", itoa(sumInts(meshInc)), itoa(sumInts(cordInc)))
	t.AddRow("peak per round", itoa(PeakIncrement(GrowthCurve(mesh.Topology, mesh.Coloring, 1))),
		itoa(PeakIncrement(GrowthCurve(cord.Topology, cord.Coloring, 1))))
	t.Note = "the mesh wave accelerates (many vertices per round, finishing in ~m/2+n/2 rounds) while the cordalis sweep recolors only a couple of vertices per round for ~(m/2)·n rounds, matching the paper's description of the two coloring patterns"
	return t
}

func sumInts(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
