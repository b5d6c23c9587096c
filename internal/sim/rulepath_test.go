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

// sliceOnlyRule shows the engine only a rule's Name and Next, hiding its
// counts form (rules.CountRule) and its word-parallel form (rules.BitRule),
// as a user-registered rule without either would.
type sliceOnlyRule struct{ rule rules.Rule }

func (r sliceOnlyRule) Name() string { return r.rule.Name() }

func (r sliceOnlyRule) Next(c color.Color, neighbors []color.Color) color.Color {
	return r.rule.Next(c, neighbors)
}

// TestSlicePathMatchesCountsPath pins the engine's rule application on its
// slice path: every registered rule ships a counts form, so without this
// test the slice path would run only for the rows that overflow a Counts
// vector.  Each registered rule, hidden behind sliceOnlyRule, must give the
// same Result bytes as the rule itself on the three tori (a 2×n one
// included) and on a Barabási–Albert graph whose 6-color hub neighborhoods
// overflow a Counts vector, under every scalar tier and the stochastic
// schedules, with a tracked target and cycle detection on.
func TestSlicePathMatchesCountsPath(t *testing.T) {
	ba, err := graphs.NewBarabasiAlbert(300, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	type substrate struct {
		name string
		sub  sim.Substrate
		k    int
	}
	subs := []substrate{{"barabasi-albert-300", ba.View(), 6}}
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
		{"sweep", sim.Options{Kernel: sim.KernelSweep}},
		{"frontier", sim.Options{Kernel: sim.KernelFrontier}},
		{"parallel-2", sim.Options{Kernel: sim.KernelParallel, Workers: 2}},
		{"uniform-async", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleUniformAsync, P: 0.5, Seed: 3}}},
		{"sequential", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleSequential}}},
		{"random-sequential", sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleRandomSequential, Seed: 4}}},
	}

	for _, s := range subs {
		src := rng.New(11)
		initial := color.RandomColoring(s.sub.Dims(), color.MustPalette(s.k), func() int { return src.Intn(s.k) })
		if s.k > 4 && maxDistinctNeighborColors(s.sub.CSR(), initial) <= 4 {
			t.Fatalf("%s: no neighborhood carries more than 4 colors, so no row overflows a Counts vector", s.name)
		}
		for _, name := range rules.RegisteredNames() {
			rule, err := rules.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			counts := sim.NewEngineOn(s.sub, rule)
			slices := sim.NewEngineOn(s.sub, sliceOnlyRule{rule})
			for _, m := range modes {
				opt := m.opt
				opt.Target, opt.DetectCycles, opt.MaxRounds = 1, true, 60
				want, err := json.Marshal(counts.Run(initial, opt))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(slices.Run(initial, opt))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s/%s/%s: slice path Result differs from the counts path:\n got %s\nwant %s", s.name, name, m.name, got, want)
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
