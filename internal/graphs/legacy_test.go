package graphs

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// legacyRun is the deleted pre-engine run loop, preserved verbatim as the
// oracle for the differential tests (and the baseline of the engine-speedup
// benchmarks): a full double-buffered sweep of every vertex every round,
// gathering each neighborhood into a scratch slice.
func legacyRun(g *Graph, rule rules.Rule, initial *Coloring, target color.Color, maxRounds int) *RunResult {
	if maxRounds <= 0 {
		maxRounds = 4*g.N() + 16
	}
	cur := initial.Clone()
	next := initial.Clone()
	res := &RunResult{}
	scratch := make([]color.Color, 0, g.MaxDegree())
	for round := 1; round <= maxRounds; round++ {
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
		res.Rounds = round
		cur, next = next, cur
		if changed == 0 {
			res.FixedPoint = true
			break
		}
	}
	res.Final = cur
	if target != color.None {
		res.TargetCount = cur.Count(target)
	}
	return res
}

// testGraphs builds a deterministic zoo of irregular substrates.
func testGraphs(t testing.TB) map[string]*Graph {
	t.Helper()
	ba, err := NewBarabasiAlbert(300, 2, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	ws, err := NewWattsStrogatz(200, 6, 0.2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	er, err := NewErdosRenyi(150, 0.05, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	ring, err := NewRing(50)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"ba": ba, "ws": ws, "er": er, "ring": ring}
}

// TestRunMatchesLegacyLoop pins the engine-backed Run bit-identical to the
// deleted full-sweep loop: same round counts, same fixed-point verdicts,
// same final colorings, across substrates, rules and seeds.
func TestRunMatchesLegacyLoop(t *testing.T) {
	rulesToTry := []rules.Rule{
		GeneralizedSMP{},
		rules.Threshold{Target: 1, Theta: 2},
		rules.SimpleMajorityPB{Black: 1},
		rules.StrongMajority{},
	}
	for name, g := range testGraphs(t) {
		for _, rule := range rulesToTry {
			for _, seed := range []uint64{1, 2, 3} {
				initial := SeedRandom(g, g.N()/10+1, 1, 2, rng.New(seed))
				want := legacyRun(g, rule, initial, 1, 4*g.N()+16)
				got := Run(g, rule, initial, 1, 4*g.N()+16)
				if got.Rounds != want.Rounds || got.FixedPoint != want.FixedPoint {
					t.Fatalf("%s/%s seed %d: rounds %d/%v vs legacy %d/%v",
						name, rule.Name(), seed, got.Rounds, got.FixedPoint, want.Rounds, want.FixedPoint)
				}
				if !got.Final.Equal(want.Final) {
					t.Fatalf("%s/%s seed %d: final colorings differ", name, rule.Name(), seed)
				}
				if got.TargetCount != want.TargetCount {
					t.Fatalf("%s/%s seed %d: target count %d vs %d", name, rule.Name(), seed, got.TargetCount, want.TargetCount)
				}
			}
		}
	}
}

// TestRunKernelsAgreeOnGraphs pins the engine tiers against each other on
// irregular substrates: frontier (the default), the full-sweep oracle and
// the striped parallel sweep must be bit-identical.
func TestRunKernelsAgreeOnGraphs(t *testing.T) {
	for name, g := range testGraphs(t) {
		eng := g.EngineFor(GeneralizedSMP{})
		initial := SeedTopByDegree(g, g.N()/8+1, 1, 2)
		front := eng.Run(initial, sim.Options{Kernel: sim.KernelFrontier})
		sweep := eng.Run(initial, sim.Options{Kernel: sim.KernelSweep})
		par := eng.Run(initial, sim.Options{Kernel: sim.KernelParallel, Workers: 4})
		if front.Rounds != sweep.Rounds || !front.Final.Equal(sweep.Final) {
			t.Fatalf("%s: frontier vs sweep diverged", name)
		}
		if par.Rounds != sweep.Rounds || !par.Final.Equal(sweep.Final) {
			t.Fatalf("%s: parallel vs sweep diverged", name)
		}
		if front.Kernel != sim.KernelFrontier || par.Kernel != sim.KernelParallel {
			t.Fatalf("%s: kernels misreported (%v, %v)", name, front.Kernel, par.Kernel)
		}
	}
}

// TestGeneralizedSMPOnToriBitIdenticalToSMP is the cross-substrate
// differential: on every 4-regular torus the generalized rule must evolve
// exactly like the paper's SMP rule, whichever path executes it — the torus
// engine under either rule, the graph engine on the converted torus, or the
// legacy sweep loop — for palettes k ∈ {2, 3, 4}.
func TestGeneralizedSMPOnToriBitIdenticalToSMP(t *testing.T) {
	for _, kind := range grid.Kinds() {
		for _, k := range []int{2, 3, 4} {
			for _, seed := range []uint64{1, 2} {
				topo := grid.MustNew(kind, 11, 13)
				d := topo.Dims()
				src := rng.New(seed)
				torusInit := color.NewColoring(d, color.None)
				for v := 0; v < d.N(); v++ {
					torusInit.Set(v, color.Color(1+src.Intn(k)))
				}
				const rounds = 80

				// Torus engine under the paper's rule (full sweep, fixed
				// budget, no early stops beyond the fixed point).
				smpRes := sim.NewEngine(topo, rules.SMP{}).Run(torusInit, sim.Options{MaxRounds: rounds, Kernel: sim.KernelSweep})
				// Torus engine under the generalized rule.
				genRes := sim.NewEngine(topo, GeneralizedSMP{}).Run(torusInit, sim.Options{MaxRounds: rounds, Kernel: sim.KernelSweep})
				if smpRes.Rounds != genRes.Rounds || !smpRes.Final.Equal(genRes.Final) {
					t.Fatalf("%v k=%d seed=%d: generalized-smp diverged from smp on the torus engine", kind, k, seed)
				}

				// Graph engine on the converted torus, plus the legacy loop.
				g := FromTorus(topo)
				graphInit := NewColoring(g.N(), color.None)
				for v := 0; v < g.N(); v++ {
					graphInit.Set(v, torusInit.At(v))
				}
				graphRes := Run(g, GeneralizedSMP{}, graphInit, color.None, rounds)
				legacyRes := legacyRun(g, GeneralizedSMP{}, graphInit, color.None, rounds)
				if graphRes.Rounds != smpRes.Rounds || graphRes.FixedPoint != smpRes.FixedPoint {
					t.Fatalf("%v k=%d seed=%d: graph engine rounds %d vs torus %d", kind, k, seed, graphRes.Rounds, smpRes.Rounds)
				}
				if legacyRes.Rounds != smpRes.Rounds {
					t.Fatalf("%v k=%d seed=%d: legacy loop rounds %d vs torus %d", kind, k, seed, legacyRes.Rounds, smpRes.Rounds)
				}
				for v := 0; v < g.N(); v++ {
					if graphRes.Final.At(v) != smpRes.Final.At(v) {
						t.Fatalf("%v k=%d seed=%d: graph engine final differs at vertex %d", kind, k, seed, v)
					}
					if legacyRes.Final.At(v) != smpRes.Final.At(v) {
						t.Fatalf("%v k=%d seed=%d: legacy final differs at vertex %d", kind, k, seed, v)
					}
				}
			}
		}
	}
}

// legacyGreedyTargetSet is the pre-engine greedy baseline (evaluating every
// candidate with the legacy loop), preserved for the differential below.
func legacyGreedyTargetSet(g *Graph, rule rules.Rule, target, background color.Color, maxSeed, maxRounds, candidateSample int, src *rng.Source) []int {
	if src == nil {
		src = rng.New(1)
	}
	seed := map[int]bool{}
	var chosen []int
	evaluate := func() int {
		c := NewColoring(g.N(), background)
		for v := range seed {
			c.Set(v, target)
		}
		return legacyRun(g, rule, c, target, maxRounds).TargetCount
	}
	current := 0
	for len(chosen) < maxSeed && current < g.N() {
		candidates := make([]int, 0, g.N())
		for v := 0; v < g.N(); v++ {
			if !seed[v] {
				candidates = append(candidates, v)
			}
		}
		if candidateSample > 0 && candidateSample < len(candidates) {
			src.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
			candidates = candidates[:candidateSample]
		}
		bestVertex, bestGain := -1, -1
		for _, v := range candidates {
			seed[v] = true
			gain := evaluate()
			delete(seed, v)
			if gain > bestGain {
				bestGain, bestVertex = gain, v
			}
		}
		if bestVertex < 0 {
			break
		}
		seed[bestVertex] = true
		chosen = append(chosen, bestVertex)
		current = bestGain
	}
	return chosen
}

// TestGreedyTargetSetMatchesLegacy pins the engine-backed greedy search to
// the legacy one: identical candidate evaluations imply identical choices.
func TestGreedyTargetSetMatchesLegacy(t *testing.T) {
	g, err := NewBarabasiAlbert(80, 2, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	rule := rules.Threshold{Target: 1, Theta: 2}
	want := legacyGreedyTargetSet(g, rule, 1, 2, 6, 120, 15, rng.New(4))
	got := GreedyTargetSet(g, rule, 1, 2, 6, 120, 15, rng.New(4))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("greedy choices diverged: %v vs legacy %v", got, want)
	}
}

// TestViewInvalidation pins the cached-CSR contract: the view is reused
// while the graph is frozen and rebuilt after a mutation, and engines track
// the view identity.
func TestViewInvalidation(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	v1 := g.View()
	if v1 != g.View() {
		t.Fatal("unmutated graph should reuse its view")
	}
	e1 := g.EngineFor(GeneralizedSMP{})
	if e1 != g.EngineFor(GeneralizedSMP{}) {
		t.Fatal("unmutated graph should reuse its engine")
	}
	g.AddEdge(2, 3)
	v2 := g.View()
	if v1 == v2 {
		t.Fatal("AddEdge must invalidate the cached view")
	}
	if csr := v2.CSR(); csr.Off[3]-csr.Off[2] != 2 {
		t.Fatalf("rebuilt view misses the new edge: degree %d", csr.Off[3]-csr.Off[2])
	}
	if e1 == g.EngineFor(GeneralizedSMP{}) {
		t.Fatal("a mutated graph must get a fresh engine")
	}
	// The ignored duplicate edge must not invalidate anything.
	g.AddEdge(2, 3)
	if v2 != g.View() {
		t.Fatal("a no-op AddEdge should keep the view")
	}
}

// TestDefaultMaxRoundsDegreeAware documents the degree-aware budget: the
// ring keeps the legacy-sized linear budget while denser graphs shrink
// toward 2n.
func TestDefaultMaxRoundsDegreeAware(t *testing.T) {
	ring, _ := NewRing(100)
	if got, want := ring.DefaultMaxRounds(), 2*100+4*100/3+32; got != want {
		t.Fatalf("ring budget = %d, want %d", got, want)
	}
	dense, _ := NewErdosRenyi(60, 0.5, rng.New(1))
	if got := dense.DefaultMaxRounds(); got >= dense.N()*4+16 {
		t.Fatalf("dense budget %d should undercut the legacy flat 4n+16 = %d", got, dense.N()*4+16)
	}
	if got := NewGraph(0).DefaultMaxRounds(); got != 32 {
		t.Fatalf("empty-graph budget = %d, want 32", got)
	}
	// The engine consumes the budget through the View seam.
	if ring.View().DefaultMaxRounds() != ring.DefaultMaxRounds() {
		t.Fatal("view budget must match the graph budget")
	}
}

// TestGreedyTargetSetSlicedMatchesLegacy is the sliced twin of the legacy
// pin: on a degree-4 circulant the candidate evaluations run 64 lanes at a
// time on the bit-sliced ensemble tier, and the chosen seeds must still be
// exactly the legacy per-candidate loop's.
func TestGreedyTargetSetSlicedMatchesLegacy(t *testing.T) {
	const n = 90
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+2)%n)
	}
	rule := rules.Threshold{Target: 1, Theta: 2}
	// The search scores candidates through RunBatchSliced and falls back to
	// per-candidate runs only when it refuses, so it must accept a batch of
	// candidate colorings here and step every lane on the bit-sliced tier.
	lanes := make([]*Coloring, 3)
	for i := range lanes {
		lanes[i] = NewColoring(n, 2)
		lanes[i].Set(i, 1)
	}
	results, err := g.EngineFor(rule).RunBatchSliced(context.Background(), lanes, sim.Options{MaxRounds: 120})
	if err != nil {
		t.Fatalf("sliced candidate evaluation refused a degree-4 circulant: %v", err)
	}
	for i, res := range results {
		if res.Kernel != sim.KernelBitsliced {
			t.Fatalf("lane %d stepped on %v, want the bit-sliced tier", i, res.Kernel)
		}
	}
	got := GreedyTargetSet(g, rule, 1, 2, 5, 120, 20, rng.New(4))
	want := legacyGreedyTargetSet(g, rule, 1, 2, 5, 120, 20, rng.New(4))
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("greedy choices diverged: %v vs legacy %v", got, want)
	}
}
