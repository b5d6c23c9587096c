package dynmon

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// ensembleSpecDoc is a small, fast, fully wired example: a density sweep of
// the ε-faulty majority on a torus, the miniature of the checked-in
// specs/ensembles/ study.
const ensembleSpecDoc = `{
  "system": {
    "substrate": {"topology": {"name": "toroidal-mesh", "rows": 12, "cols": 12}},
    "colors": 2,
    "rule": "smp"
  },
  "initial": {"config": "bernoulli"},
  "run": {"max_rounds": 48, "target": 1, "noise": {"eps": 0.02}},
  "replicas": 16,
  "seed": 42,
  "sweep": {"axis": "density", "values": [0.2, 0.5, 0.8]}
}`

func parseEnsembleDoc(t *testing.T) *EnsembleSpec {
	t.Helper()
	es, err := ParseEnsembleSpec([]byte(ensembleSpecDoc))
	if err != nil {
		t.Fatal(err)
	}
	return es
}

// TestParseEnsembleSpecRejects pins the strict parser's error surface.
func TestParseEnsembleSpecRejects(t *testing.T) {
	base := func() *EnsembleSpec { return parseEnsembleDoc(t) }
	cases := map[string]func(*EnsembleSpec){
		"no replicas":            func(es *EnsembleSpec) { es.Replicas = 0 },
		"no initial":             func(es *EnsembleSpec) { es.Initial = InitialSpec{} },
		"empty sweep":            func(es *EnsembleSpec) { es.Sweep.Values = nil },
		"unknown axis":           func(es *EnsembleSpec) { es.Sweep.Axis = "voltage" },
		"density out of range":   func(es *EnsembleSpec) { es.Sweep.Values = []float64{1.5} },
		"density NaN":            func(es *EnsembleSpec) { es.Sweep.Values = []float64{math.NaN()} },
		"density without family": func(es *EnsembleSpec) { es.Initial.Config = "random" },
		"p on wrong schedule":    func(es *EnsembleSpec) { es.Sweep.Axis = "p"; es.Run.Schedule = &ScheduleSpec{Mode: "sequential"} },
		"p zero":                 func(es *EnsembleSpec) { es.Sweep.Axis = "p"; es.Sweep.Values = []float64{0} },
		"p NaN":                  func(es *EnsembleSpec) { es.Sweep.Axis = "p"; es.Sweep.Values = []float64{math.NaN()} },
		"fractional threshold":   func(es *EnsembleSpec) { es.Sweep.Axis = "threshold"; es.Sweep.Values = []float64{1.5} },
		"threshold out of range": func(es *EnsembleSpec) { es.Sweep.Axis = "threshold"; es.Sweep.Values = []float64{9} },
		"eps above one":          func(es *EnsembleSpec) { es.Sweep.Axis = "eps"; es.Sweep.Values = []float64{1.01} },
		"eps NaN":                func(es *EnsembleSpec) { es.Sweep.Axis = "eps"; es.Sweep.Values = []float64{math.NaN()} },
		"takeover fraction > 1":  func(es *EnsembleSpec) { es.TakeoverFraction = 1.5 },
		"takeover fraction NaN":  func(es *EnsembleSpec) { es.TakeoverFraction = math.NaN() },
	}
	for label, mutate := range cases {
		t.Run(label, func(t *testing.T) {
			es := base()
			mutate(es)
			if err := es.Validate(); err == nil {
				t.Fatalf("%s accepted", label)
			}
		})
	}
	huge := `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":8,"cols":8}},"colors":2},"initial":{"config":"bernoulli"},"replicas":2000000000}`
	if _, err := ParseEnsembleSpec([]byte(huge)); !errors.Is(err, ErrEnsembleTooLarge) {
		t.Fatalf("2e9 replicas: err = %v, want ErrEnsembleTooLarge", err)
	}
	if _, err := ParseEnsembleSpec([]byte(`{"system": {}, "voltage": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := ParseEnsembleSpec([]byte(ensembleSpecDoc + "trailing")); err == nil {
		t.Fatal("trailing data accepted")
	}
}

// TestEnsembleDigest pins the content address: stable across parse round
// trips, sensitive to every seeding input.
func TestEnsembleDigest(t *testing.T) {
	es := parseEnsembleDoc(t)
	d1, err := es.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(d1, "sha256:") {
		t.Fatalf("digest %q", d1)
	}
	wire, err := es.JSON()
	if err != nil {
		t.Fatal(err)
	}
	again, err := ParseEnsembleSpec(wire)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := again.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest unstable across round trip: %q vs %q", d1, d2)
	}
	mutated := parseEnsembleDoc(t)
	mutated.Seed++
	d3, err := mutated.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("digest ignores the master seed")
	}
}

// runEnsemble builds and runs an ensemble with the given pool bound.
func runEnsemble(t *testing.T, es *EnsembleSpec, workers int) *EnsembleReport {
	t.Helper()
	e, err := NewEnsemble(es, workers)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestEnsembleDeterministicAcrossWorkers is the ensemble determinism
// acceptance: the same spec must produce a byte-identical report on 1, 2
// and 4 workers, over the stochastic per-replica path (noisy runs), the
// bit-sliced tiles (deterministic runs on this 2-color mesh system), a
// point of two tiles, the fractional takeover count, tiles the sliced tier
// refuses (3 colors), the per-point systems of the threshold axis and an
// eps axis whose eps=0 point is deterministic.  Each report's sha256 was
// computed with a harness that stepped points one after another and kept
// every replica's full Result, so the pinned bytes are independent of how
// the pool schedules units and what it keeps of each replica.
func TestEnsembleDeterministicAcrossWorkers(t *testing.T) {
	cases := []struct {
		label  string
		mutate func(*EnsembleSpec)
		sha256 string
	}{
		{"stochastic", func(es *EnsembleSpec) {}, "0d6439bc0662e1c9f654b274f5023319b8043a91d887ad46c54d92793bc5abbc"},
		{"deterministic", func(es *EnsembleSpec) { es.Run.Noise = nil }, "546c4b2a1b90afb7d1acc7145d780f6458a6a0f7796331617653e1970a6d9bbc"},
		{"two tiles", func(es *EnsembleSpec) {
			es.System.Substrate.Topology.Name = "torus-serpentinus"
			es.Run = RunSpec{MaxRounds: 48, Target: 2, DetectCycles: true, StopWhenMonochromatic: true}
			es.Replicas = 100
			es.Initial.Density = 0.7
			es.Sweep = nil
		}, "affdc6656e822a07eecb175d4785469735865207bf7b3540a1a1cb2faec9f2dc"},
		{"takeover fraction", func(es *EnsembleSpec) {
			es.Run.Noise = nil
			es.TakeoverFraction = 0.75
			es.Sweep.Values = []float64{0.4, 0.5, 0.55, 0.6}
		}, "2c948341985bbcafd11e9d54bea6920a0f1fc4efe31b30c0ef2a3c82f9701bc6"},
		{"three colors", func(es *EnsembleSpec) { es.System.Colors = 3; es.Run.Noise = nil }, "6dfbee3b057cd593d4250d2201d92df7b6377673294eba6e3d7031a097ebe316"},
		{"threshold axis", func(es *EnsembleSpec) {
			es.Run.Noise = nil
			es.Initial.Density = 0.3
			es.Sweep = &SweepSpec{Axis: "threshold", Values: []float64{1, 2, 3, 4}}
		}, "8e7c5ce873ee538b18175b89d556aaf2961191b95340f26847c52c253cab80b4"},
		{"eps axis", func(es *EnsembleSpec) {
			es.Initial.Density = 0.5
			es.Sweep = &SweepSpec{Axis: "eps", Values: []float64{0, 0.01, 0.05}}
		}, "f6a2ef06faa075999a16811cc590bb2fae0927ea1779c9911003cc592bdeff6c"},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			es := parseEnsembleDoc(t)
			tc.mutate(es)
			for _, workers := range []int{1, 2, 4} {
				wire, err := runEnsemble(t, es, workers).JSON()
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprintf("%x", sha256.Sum256(wire)); got != tc.sha256 {
					t.Errorf("%d workers: report sha256 %s, want %s:\n%s", workers, got, tc.sha256, wire)
				}
			}
		})
	}
}

// TestEnsembleErrorIndependentOfWorkers: when every replica fails to build
// (the cross config exists only on the toroidal mesh), the error names the
// lowest failing (point, replica) at any worker count, with and without a
// sweep whose points run as tiles and as single replicas.
func TestEnsembleErrorIndependentOfWorkers(t *testing.T) {
	for label, sweep := range map[string]*SweepSpec{
		"sweepless": nil,
		"eps axis":  {Axis: "eps", Values: []float64{0, 0.01}},
	} {
		t.Run(label, func(t *testing.T) {
			es := parseEnsembleDoc(t)
			es.System.Substrate.Topology.Name = "torus-cordalis"
			es.Initial = InitialSpec{Config: "cross"}
			es.Run.Noise = nil
			es.Replicas = 100
			es.Sweep = sweep
			var want string
			for _, workers := range []int{1, 2, 4} {
				e, err := NewEnsemble(es, workers)
				if err != nil {
					t.Fatal(err)
				}
				_, err = e.Run(context.Background())
				if err == nil {
					t.Fatalf("%d workers: an unbuildable ensemble ran", workers)
				}
				if workers == 1 {
					want = err.Error()
					if !strings.Contains(want, "point 0: replica 0:") {
						t.Fatalf("error %q does not name point 0, replica 0", want)
					}
				} else if err.Error() != want {
					t.Fatalf("%d workers: error %q, want %q", workers, err, want)
				}
			}
		})
	}
}

// TestEnsembleCancelLeaksNothing cancels Run while its pool is stepping:
// the error wraps context.Canceled and every worker is joined, so the
// goroutine count returns to its baseline.
func TestEnsembleCancelLeaksNothing(t *testing.T) {
	// Uncanceled, this ensemble steps for about a second on a 2-core Xeon.
	es := parseEnsembleDoc(t)
	es.System.Substrate.Topology.Rows, es.System.Substrate.Topology.Cols = 128, 128
	es.Run.MaxRounds = 96
	es.Sweep.Values = []float64{0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75}
	e, err := NewEnsemble(es, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(20*time.Millisecond, cancel)
	defer timer.Stop()
	if _, err := e.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before the run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEnsembleDensitySweep checks the physics end to end: takeover
// probability of the majority rule grows along the seeding-density axis,
// intervals are well-formed, and the outcome census covers every replica.
func TestEnsembleDensitySweep(t *testing.T) {
	es := parseEnsembleDoc(t)
	rep := runEnsemble(t, es, 0)
	if rep.Axis != "density" || len(rep.Points) != 3 {
		t.Fatalf("axis %q, %d points", rep.Axis, len(rep.Points))
	}
	for _, pt := range rep.Points {
		if pt.Takeovers+pt.FixedPoints+pt.Cycles+pt.Exhausted != pt.Replicas {
			t.Fatalf("outcome census %d+%d+%d+%d does not cover %d replicas",
				pt.Takeovers, pt.FixedPoints, pt.Cycles, pt.Exhausted, pt.Replicas)
		}
		if pt.CILow > pt.TakeoverProb || pt.TakeoverProb > pt.CIHigh {
			t.Fatalf("point estimate %v outside its interval [%v, %v]", pt.TakeoverProb, pt.CILow, pt.CIHigh)
		}
		if pt.Takeovers > 0 && (pt.Rounds.Min < 0 || pt.Rounds.Min > pt.Rounds.P50 || pt.Rounds.P50 > pt.Rounds.P90 || pt.Rounds.P90 > pt.Rounds.Max) {
			t.Fatalf("rounds summary out of order: %+v", pt.Rounds)
		}
	}
	lo, hi := rep.Points[0], rep.Points[2]
	if lo.TakeoverProb >= hi.TakeoverProb {
		t.Fatalf("takeover probability did not grow with density: %.3f at %.1f vs %.3f at %.1f",
			lo.TakeoverProb, lo.Value, hi.TakeoverProb, hi.Value)
	}
}

// TestEnsembleEpsAxis checks the eps axis, including the eps=0 point, which
// removes the noise section and must take the deterministic batch path.
func TestEnsembleEpsAxis(t *testing.T) {
	es := parseEnsembleDoc(t)
	es.Initial.Density = 0.5
	es.Run.Noise = nil
	es.Sweep = &SweepSpec{Axis: "eps", Values: []float64{0, 0.5}}
	rep := runEnsemble(t, es, 2)
	if len(rep.Points) != 2 {
		t.Fatalf("%d points", len(rep.Points))
	}
	// At eps=0.5 half of all rule applications misfire; sustained takeover
	// of a 144-vertex torus within the budget is (astronomically) unlikely,
	// while the noise keeps configurations moving, so replicas exhaust.
	if noisy := rep.Points[1]; noisy.Exhausted != noisy.Replicas {
		t.Fatalf("eps=0.5 point: %+v; want every replica exhausted", noisy)
	}
}

// TestEnsembleThresholdAxis checks the threshold axis rebuilds the system
// per point through the threshold-θ registry entries: θ=1 floods from any
// seed, θ=4 (unanimity on the degree-4 torus) freezes immediately.
func TestEnsembleThresholdAxis(t *testing.T) {
	es := parseEnsembleDoc(t)
	es.Run.Noise = nil
	es.Initial.Density = 0.3
	es.Replicas = 8
	es.Sweep = &SweepSpec{Axis: "threshold", Values: []float64{1, 4}}
	rep := runEnsemble(t, es, 2)
	flood, freeze := rep.Points[0], rep.Points[1]
	if flood.Takeovers != flood.Replicas {
		t.Fatalf("threshold-1 took over %d of %d replicas", flood.Takeovers, flood.Replicas)
	}
	if freeze.Takeovers != 0 {
		t.Fatalf("threshold-4 took over %d replicas", freeze.Takeovers)
	}
}

// TestEnsembleSweepless checks the degenerate single-point form.
func TestEnsembleSweepless(t *testing.T) {
	es := parseEnsembleDoc(t)
	es.Sweep = nil
	es.Initial.Density = 0.6
	rep := runEnsemble(t, es, 2)
	if rep.Axis != "" || len(rep.Points) != 1 {
		t.Fatalf("axis %q, %d points", rep.Axis, len(rep.Points))
	}
}

// TestEnsembleTakeoverFraction checks the bulk-takeover criterion: under a
// round budget too short for full monochromatic takeover, a 0.6-fraction
// criterion counts replicas the strict criterion misses — the knob noisy
// large-grid ensembles rely on.
func TestEnsembleTakeoverFraction(t *testing.T) {
	base := parseEnsembleDoc(t)
	base.Sweep = nil
	base.Run.Noise = nil
	base.Initial.Density = 0.65
	base.Run.MaxRounds = 2
	strict := runEnsemble(t, base, 2)

	bulk := parseEnsembleDoc(t)
	bulk.Sweep = nil
	bulk.Run.Noise = nil
	bulk.Initial.Density = 0.65
	bulk.Run.MaxRounds = 2
	bulk.TakeoverFraction = 0.6
	loose := runEnsemble(t, bulk, 2)

	if s, b := strict.Points[0].Takeovers, loose.Points[0].Takeovers; b <= s {
		t.Fatalf("bulk criterion counted %d takeovers, strict %d; want bulk > strict under a 2-round budget", b, s)
	}
	d1, err := base.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := bulk.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatal("digest ignores the takeover fraction")
	}
}

// TestEnsembleCSV pins the report's CSV surface.
func TestEnsembleCSV(t *testing.T) {
	es := parseEnsembleDoc(t)
	es.Replicas = 4
	rep := runEnsemble(t, es, 2)
	csv := rep.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	if len(lines) != 1+len(rep.Points) {
		t.Fatalf("%d CSV lines for %d points:\n%s", len(lines), len(rep.Points), csv)
	}
	if !strings.HasPrefix(lines[0], "density,replicas,takeovers,takeover_prob,ci_low,ci_high") {
		t.Fatalf("header %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != strings.Count(lines[0], ",") {
			t.Fatalf("row %q has %d fields, header %d", line, got+1, strings.Count(lines[0], ",")+1)
		}
	}
}

// FuzzParseEnsembleSpec fuzzes the strict ensemble parser: it must never
// panic, and anything it accepts must validate, re-marshal and re-parse
// with a stable digest.
func FuzzParseEnsembleSpec(f *testing.F) {
	seeds := []string{
		ensembleSpecDoc,
		`{"system":{"substrate":{"generator":{"name":"barabasi-albert","n":50,"params":{"m":2},"seed":7}},"colors":2},"initial":{"config":"bernoulli","density":0.3},"run":{},"replicas":4}`,
		`{"system":{"substrate":{}},"initial":{},"replicas":1}`,
		`{"replicas":0}`,
		`{}`,
		``,
		`[]`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"initial":{"config":"bernoulli"},"run":{"schedule":{"mode":"uniform-async","p":0.5}},"replicas":2,"sweep":{"axis":"p","values":[0.25,0.75]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		es, err := ParseEnsembleSpec(data)
		if err != nil {
			return
		}
		if verr := es.Validate(); verr != nil {
			t.Fatalf("ParseEnsembleSpec accepted an invalid ensemble: %v", verr)
		}
		d1, digestErr := es.Digest()
		wire, err := es.JSON()
		if err != nil {
			t.Fatalf("accepted ensemble does not marshal: %v", err)
		}
		again, err := ParseEnsembleSpec(wire)
		if err != nil {
			t.Fatalf("accepted ensemble does not re-parse: %v", err)
		}
		if digestErr == nil {
			d2, err := again.Digest()
			if err != nil || d1 != d2 {
				t.Fatalf("digest unstable across round trip: %q vs %q (%v)", d1, d2, err)
			}
		}
	})
}
