package sim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/color"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// TestScalarTiersMatchSweepOracle pins every scalar tier and stochastic
// schedule to the untabulated oracle, a forced sequential sweep that
// applies each rule through its own Next.  Each registered rule must give
// the oracle's Result bytes on the three tori (a 2×n one included), where
// the tiers look colors up in the rule table, and on a Barabási–Albert
// graph with 10 colors, where every tier gathers rows for Next and some
// hub sees a ninth distinct color, with a tracked target and cycle
// detection on.
func TestScalarTiersMatchSweepOracle(t *testing.T) {
	ba, err := graphs.NewBarabasiAlbert(300, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	type substrate struct {
		name string
		sub  sim.Substrate
		k    int
	}
	subs := []substrate{{"barabasi-albert-300", ba.View(), 10}}
	for _, c := range []struct {
		kind       grid.Kind
		rows, cols int
	}{
		{grid.KindToroidalMesh, 7, 9},
		{grid.KindTorusCordalis, 2, 11},
		{grid.KindTorusSerpentinus, 6, 5},
	} {
		topo := grid.MustNew(c.kind, c.rows, c.cols)
		subs = append(subs, substrate{topo.Name(), sim.NewEngine(topo, rules.SMP{}).Substrate(), 4})
	}

	modes := []struct {
		name string
		opt  sim.Options
	}{
		{"frontier", sim.Options{Kernel: sim.KernelFrontier}},
		{"parallel-1", sim.Options{Kernel: sim.KernelParallel, Workers: 1}},
		{"parallel-2", sim.Options{Kernel: sim.KernelParallel, Workers: 2}},
		{"uniform-async", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleUniformAsync, P: 0.5, Seed: 3}}},
		{"sequential", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleSequential}}},
		{"random-sequential", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleRandomSequential, Seed: 4}}},
		{"vertex-clock", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleVertexClock, Seed: 6}}},
	}

	for _, s := range subs {
		src := rng.New(11)
		initial := color.RandomColoring(s.sub.Dims(), color.MustPalette(s.k), func() int { return src.Intn(s.k) })
		if s.k > 8 && maxDistinctNeighborColors(s.sub.CSR(), initial) <= 8 {
			t.Fatalf("%s: no neighborhood carries more than 8 colors", s.name)
		}
		for _, name := range rules.RegisteredNames() {
			rule, err := rules.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			eng := sim.NewEngineOn(s.sub, rule)
			for _, m := range modes {
				opt := m.opt
				opt.Target, opt.DetectCycles, opt.MaxRounds = 1, true, 60
				oracle := opt
				oracle.Kernel = sim.KernelSweep
				want, err := json.Marshal(eng.Run(initial, oracle))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(eng.Run(initial, opt))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s/%s: Result differs from the sweep oracle's:\n got %s\nwant %s", s.name, name, m.name, got, want)
				}
			}
		}
	}
}

// maxDistinctNeighborColors returns the largest number of distinct colors
// in any vertex's neighborhood.
func maxDistinctNeighborColors(csr *grid.CSR, c *color.Coloring) int {
	best := 0
	for v := 0; v < csr.N(); v++ {
		seen := map[color.Color]bool{}
		for _, u := range csr.Neighbors[csr.Off[v]:csr.Off[v+1]] {
			seen[c.At(int(u))] = true
		}
		best = max(best, len(seen))
	}
	return best
}
