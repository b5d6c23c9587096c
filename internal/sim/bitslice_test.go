package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// ensembleLanes builds a 64-replica ensemble with deliberately mixed
// termination behavior: monochromatic lanes, a near-fixed-point lane and
// random two-color lanes that converge (or cycle) at different rounds.
func ensembleLanes(d grid.Dims, lanes int) []*color.Coloring {
	out := make([]*color.Coloring, lanes)
	for i := range out {
		switch i {
		case 0:
			out[i] = color.NewColoring(d, 1)
		case 1:
			out[i] = color.NewColoring(d, 2)
		case 2:
			c := color.NewColoring(d, 1)
			c.Set(0, 2)
			out[i] = c
		default:
			out[i] = randomTestColoring(uint64(100+i), d, 2)
		}
	}
	return out
}

// TestBitsliceBitIdenticalAllRulesAllTopologies is the differential oracle
// of the ensemble tier: on every registered rule × torus kind, over
// 64-lane ensembles with mixed termination rounds and an options matrix
// covering fixed points, monochromatic stops, cycle detection, target
// traces and budget exhaustion, RunBatchSliced must produce per-lane
// Results byte-identical (JSON form and checkpoint seed) to 64 scalar
// RunContext runs, and RunBatchOutcomes each scalar Result's Outcome
// (counting color count).  Rule × substrate pairs without a two-color
// kernel are skipped, but the core matrix must qualify.
func TestBitsliceBitIdenticalAllRulesAllTopologies(t *testing.T) {
	sizes := [][2]int{{3, 3}, {4, 6}, {9, 9}, {3, 67}, {2, 7}, {7, 2}}
	options := []struct {
		name  string
		opt   Options
		count color.Color
	}{
		{"plain", Options{MaxRounds: 40}, 2},
		{"verify", Options{MaxRounds: 40, Target: 1, StopWhenMonochromatic: true, DetectCycles: true}, 1},
		{"budget", Options{MaxRounds: 6, Target: 2, DetectCycles: true}, 2},
	}
	qualified, cycles, budgets := 0, 0, 0
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				lanes := ensembleLanes(topo.Dims(), 64)
				for _, tc := range options {
					label := name + "/" + topo.Name() + "/" + topo.Dims().String() + "/" + tc.name
					sliced, err := eng.RunBatchSliced(context.Background(), lanes, tc.opt)
					if err != nil {
						if errors.Is(err, ErrBitsliceIneligible) {
							continue
						}
						t.Fatalf("%s: %v", label, err)
					}
					qualified++
					outcomes := make([]Outcome, len(lanes))
					if err := eng.RunBatchOutcomes(context.Background(), len(lanes), packed(lanes), tc.opt, tc.count, outcomes); err != nil {
						t.Fatalf("%s: outcomes: %v", label, err)
					}
					for r, res := range sliced {
						scalar, err := eng.RunContext(context.Background(), lanes[r], tc.opt)
						if err != nil {
							t.Fatalf("%s: scalar lane %d: %v", label, r, err)
						}
						resultBytesEqual(t, label, res, scalar)
						if want := scalar.Outcome(tc.count); outcomes[r] != want {
							t.Fatalf("%s: lane %d outcome %+v, want %+v", label, r, outcomes[r], want)
						}
						if res.Cycle {
							cycles++
						}
						if !res.FixedPoint && !res.Cycle && !res.Monochromatic && res.Rounds == 6 {
							budgets++
						}
					}
				}
			}
		}
	}
	if qualified < 100 {
		t.Fatalf("only %d qualifying rule × torus × options combinations, expected the full matrix", qualified)
	}
	if cycles == 0 {
		t.Fatal("no lane terminated on a detected cycle; the matrix lost its cycle coverage")
	}
	if budgets == 0 {
		t.Fatal("no lane exhausted its round budget; the matrix lost its budget coverage")
	}
}

// circulant4 builds the 4-regular circulant C_n(1, 2) — a torus-free
// substrate that is still a dense degree-4 index, the graph-side shape of
// bitslice eligibility.
func circulant4(n int) Substrate {
	adj := make([][]int, n)
	for v := 0; v < n; v++ {
		adj[v] = []int{(v + 1) % n, (v + n - 1) % n, (v + 2) % n, (v + n - 2) % n}
	}
	return &adjSubstrate{csr: grid.BuildCSRAdj(adj)}
}

// TestBitsliceGraphDifferential runs the same oracle on a 4-regular
// non-torus substrate, where the scalar auto tier is the dirty frontier
// (no bitplane exists): sliced lanes must match it byte for byte, and
// report the bit-sliced tier in process.
func TestBitsliceGraphDifferential(t *testing.T) {
	sub := circulant4(129)
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngineOn(sub, rule)
		lanes := ensembleLanes(sub.Dims(), 64)
		opt := Options{Target: 1, StopWhenMonochromatic: true, DetectCycles: true}
		sliced, err := eng.RunBatchSliced(context.Background(), lanes, opt)
		if err != nil {
			if errors.Is(err, ErrBitsliceIneligible) {
				continue
			}
			t.Fatal(err)
		}
		for r, res := range sliced {
			if res.Kernel != KernelBitsliced {
				t.Fatalf("%s lane %d: kernel %v, want bitsliced", name, r, res.Kernel)
			}
			scalar, err := eng.RunContext(context.Background(), lanes[r], opt)
			if err != nil {
				t.Fatal(err)
			}
			resultBytesEqual(t, name+"/circulant4", res, scalar)
		}
	}
}

// TestKernelBitslicedCannotBeForced: the bit-sliced tier names batch lanes
// only, so its name does not parse and a run forcing it errors.
func TestKernelBitslicedCannotBeForced(t *testing.T) {
	if KernelBitsliced.String() != "bitsliced" {
		t.Fatalf("String() = %q, want bitsliced", KernelBitsliced.String())
	}
	if _, err := ParseKernel("bitsliced"); err == nil {
		t.Fatal("ParseKernel accepted the batch-only tier")
	}
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(1, topo.Dims(), 2)
	if _, err := eng.RunContext(context.Background(), initial, Options{Kernel: KernelBitsliced}); err == nil {
		t.Fatal("a single run forced the batch-only tier")
	}
}

// roundLimitCtx is a context whose Err flips to Canceled after limit calls
// — RunBatchSliced polls Err exactly once per round, so the limit is a
// deterministic "cancel before round limit+1" switch.
type roundLimitCtx struct {
	calls, limit int
}

func (c *roundLimitCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}
func (c *roundLimitCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *roundLimitCtx) Done() <-chan struct{}       { return nil }
func (c *roundLimitCtx) Value(any) any               { return nil }

// TestBitsliceCancellationMidBatch cancels a sliced batch between rounds
// and pins the contract: lanes that already terminated keep their full
// (scalar-identical) Results, still-active lanes are nil, and the call
// returns the context error.
func TestBitsliceCancellationMidBatch(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	rule, err := rules.ByName("smp")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, rule)
	lanes := ensembleLanes(topo.Dims(), 64)
	opt := Options{Target: 1, StopWhenMonochromatic: true, DetectCycles: true}

	full, err := eng.RunBatchSliced(context.Background(), lanes, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Cancel at a round where some lanes are done and some are not.
	minR, maxR := full[0].Rounds, full[0].Rounds
	for _, res := range full {
		if res.Rounds < minR {
			minR = res.Rounds
		}
		if res.Rounds > maxR {
			maxR = res.Rounds
		}
	}
	if minR == maxR {
		t.Fatalf("ensemble terminated uniformly at round %d; mixed-termination fixture broken", minR)
	}
	limit := (minR + maxR) / 2
	partial, err := eng.RunBatchSliced(&roundLimitCtx{limit: limit}, lanes, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done, pending := 0, 0
	for r, res := range partial {
		if full[r].Rounds <= limit {
			if res == nil {
				t.Fatalf("lane %d terminated at round %d <= %d but was dropped", r, full[r].Rounds, limit)
			}
			resultBytesEqual(t, "canceled batch", res, full[r])
			done++
		} else {
			if res != nil {
				t.Fatalf("lane %d needed %d rounds but reported a result after cancellation at %d", r, full[r].Rounds, limit)
			}
			pending++
		}
	}
	if done == 0 || pending == 0 {
		t.Fatalf("cancellation split done=%d pending=%d, want both non-zero", done, pending)
	}
}

// TestBitsliceIneligible enumerates the fallback conditions: each must
// report ErrBitsliceIneligible (so Session can fall back) and leave no
// partial results.
func TestBitsliceIneligible(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	smp, err := rules.ByName("smp")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, smp)
	ok := ensembleLanes(topo.Dims(), 3)

	check := func(label string, initials []*color.Coloring, opt Options) {
		t.Helper()
		res, err := eng.RunBatchSliced(context.Background(), initials, opt)
		if !errors.Is(err, ErrBitsliceIneligible) {
			t.Fatalf("%s: err = %v, want ErrBitsliceIneligible", label, err)
		}
		if res != nil {
			t.Fatalf("%s: got partial results on an ineligible batch", label)
		}
	}

	check("empty", nil, Options{})
	check("too many lanes", make([]*color.Coloring, 65), Options{})
	check("forced kernel", ok, Options{Kernel: KernelSweep})
	check("parallel", ok, Options{Parallel: true})
	check("record history", ok, Options{RecordHistory: true})
	threeColors := []*color.Coloring{randomTestColoring(1, topo.Dims(), 3)}
	check("colors outside {1,2}", threeColors, Options{})

	// A rule without a word-parallel form has no sliced tier at all.
	genSMP, err := rules.ByName("generalized-smp")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := genSMP.(rules.BitRule); ok {
		t.Fatal("fixture stale: generalized-smp now ships a BitRule; pick another ineligible rule")
	}
	genEng := NewEngine(topo, genSMP)
	if _, err := genEng.RunBatchSliced(context.Background(), ok, Options{}); !errors.Is(err, ErrBitsliceIneligible) {
		t.Fatalf("rule without kernels: err = %v, want ErrBitsliceIneligible", err)
	}
}

// packed is the lane fill of replicas held as colorings.
func packed(lanes []*color.Coloring) func(words []uint64) bool {
	return func(words []uint64) bool { return color.PackLanes(lanes, words) }
}

// TestBitsliceStepAllocs pins the steady-state sliced step allocation-free,
// with every bookkeeping feature (cycle detection, target tracing) enabled,
// with and without the per-lane change counters.
func TestBitsliceStepAllocs(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 32, 32)
	rule, err := rules.ByName("smp")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, rule)
	for _, counting := range []bool{true, false} {
		bs := eng.newBitslice()
		if err := bs.reset(64, packed(ensembleLanes(topo.Dims(), 64))); err != nil {
			t.Fatal(err)
		}
		bs.counting = counting
		bs.detectCycles = true
		bs.setTarget(1)
		for r := 0; r < bs.lanes; r++ {
			bs.first[r] = make([]int, topo.Dims().N())
		}
		if allocs := testing.AllocsPerRun(50, bs.Step); allocs != 0 {
			t.Fatalf("counting %v: Bitslice.Step allocates %.1f objects per round, want 0", counting, allocs)
		}
	}
}
