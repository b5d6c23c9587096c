package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"repro/internal/color"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// TestStochasticResultsPinned pins the sha256 of the Result bytes of the
// masked schedules (uniform-async, vertex-clock), with and without ε-faults,
// and of the noisy synchronous and sequential runs, on a mesh, a
// serpentinus torus and a Barabási–Albert graph.  Every draw is a
// counter-based hash of (seed, round, vertex), so these bytes move only if
// a drawn bit moves; each run is checked sequentially and on three stripes.
func TestStochasticResultsPinned(t *testing.T) {
	ba, err := graphs.NewBarabasiAlbert(300, 3, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	subs := []struct {
		name string
		sub  sim.Substrate
	}{
		{"mesh", sim.NewEngine(grid.MustNew(grid.KindToroidalMesh, 24, 24), rules.SMP{}).Substrate()},
		{"serpentinus", sim.NewEngine(grid.MustNew(grid.KindTorusSerpentinus, 16, 20), rules.SMP{}).Substrate()},
		{"ba", ba.View()},
	}
	noise := &sim.Noise{Eps: 0.05, Colors: 4, Seed: 13}
	cases := []struct {
		name  string
		sched *sim.Schedule
		noise *sim.Noise
	}{
		{"uniform-async", &sim.Schedule{Kind: sim.ScheduleUniformAsync, P: 0.6, Seed: 7}, nil},
		{"uniform-async+noise", &sim.Schedule{Kind: sim.ScheduleUniformAsync, P: 0.6, Seed: 7}, noise},
		{"vertex-clock", &sim.Schedule{Kind: sim.ScheduleVertexClock, Period: 3, Seed: 9}, nil},
		{"vertex-clock+noise", &sim.Schedule{Kind: sim.ScheduleVertexClock, Period: 3, Seed: 9}, noise},
		{"sync+noise", nil, noise},
		{"sequential+noise", &sim.Schedule{Kind: sim.ScheduleSequential}, noise},
	}
	want := map[string]string{
		"mesh/uniform-async":              "76b732f80a3fd8da4e91d3a13d026ea6a3db23be4615991f7f2da81682269594",
		"mesh/uniform-async+noise":        "a7c47d3d2424d22880bc20f0d51b4868038e977cdaa07e6f63d500927792d83e",
		"mesh/vertex-clock":               "b906dc12d815ca3573d16a6bcc30585541db6f3fd183a76f16efd8233e174947",
		"mesh/vertex-clock+noise":         "456085d4cadf8d037e6e4d4cc65853ea6ba4670e7b4ce79147d0fc1427b00b36",
		"mesh/sync+noise":                 "860035f1afdfbb1c6663f94f6a03adf2d06f50fdd8b98dd6a9fd8852405c9bd8",
		"mesh/sequential+noise":           "bd79a3689d8447aa22f759378b078f7059b390fd58af8c1bc697bd56970b6c19",
		"serpentinus/uniform-async":       "79af7a9b300dc450493e24307ecf928aa9ebfb04b3b57d44337114348f70fa94",
		"serpentinus/uniform-async+noise": "bd89f509dc1073df98ca53d3583542ea2fe8135e84466f3b80f1f3cb1ba6ebcd",
		"serpentinus/vertex-clock":        "d5bbbdd98efbbecdb9f5262c748bd0535f1909f2f019b93448457c2c682280fa",
		"serpentinus/vertex-clock+noise":  "52580c69af257728cc06a1619a5cff541d950640a1693df83d45f73bce56a506",
		"serpentinus/sync+noise":          "d0f378fc709ab0d655266bfb31c564aa517ed08349d517d99e29ac745de15182",
		"serpentinus/sequential+noise":    "d20ff5584db11465163d9580544bae1bd939a50e7e469ba4e36bf6e65ced095f",
		"ba/uniform-async":                "d2bf112e7547639c699465590a3e47c5000201f3e57792645dbc9c94fc639592",
		"ba/uniform-async+noise":          "38a6fcf12c9697e7ca68d78bc11bcdbaa1646961f6447b2593f5c00a2bd2207d",
		"ba/vertex-clock":                 "28db41298d223596e200a83bc7bafb7033099b83dc0112fa88afd98fae388ffa",
		"ba/vertex-clock+noise":           "1400c722d58ad815f7056eef1e12dde4901685b1c080fdddc2ab86123efe6b8f",
		"ba/sync+noise":                   "caa5e0f3f78aed4df69603527be6fb4c225aa8ef94ebdd4385de7701d3afceef",
		"ba/sequential+noise":             "47e1375f33307b162808d940e423fb5bbc54b67e16d6af02a8269d030e7fbff6",
	}
	for _, s := range subs {
		eng := sim.NewEngineOn(s.sub, rules.SMP{})
		src := rng.New(11)
		initial := color.RandomColoring(s.sub.Dims(), color.MustPalette(4), func() int { return src.Intn(4) })
		for _, c := range cases {
			label := s.name + "/" + c.name
			for _, workers := range []int{1, 3} {
				opt := sim.Options{Schedule: c.sched, Noise: c.noise, Target: 1, MaxRounds: 40, StopWhenMonochromatic: true, DetectCycles: true}
				opt.Parallel, opt.Workers = workers > 1, workers
				b, err := json.Marshal(eng.Run(initial, opt))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want[label] {
					t.Errorf("%s workers=%d: Result sha256 = %s, want %s", label, workers, got, want[label])
				}
			}
		}
	}
}
