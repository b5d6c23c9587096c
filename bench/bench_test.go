package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tinyArgs runs a workload at tiny scale with a short window.
func tinyArgs(workload, trace, traceOut string) []string {
	return []string{"--workload", workload, "--seed", "7", "--seconds", "0.15", "--scale", "tiny",
		"--trace", trace, "--specs", "../specs", "--trace-out", traceOut}
}

func TestWorkloadsPrintDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, name := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				traceOut := filepath.Join(t.TempDir(), "trace.json")
				var stdout, stderr bytes.Buffer
				if code := runCLI(tinyArgs(name, trace, traceOut), &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := lastLines(stdout.Bytes(), 2)
				if !strings.Contains(lines[0], `"nproc"`) || !strings.Contains(lines[0], `"workload":"`+name+`"`) {
					t.Errorf("no machine stamp before the result: %q", lines[0])
				}
				var res result
				if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
					checkTrace(t, traceOut)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for metric, unit := range want {
					got, ok := res.Metrics[metric]
					if !ok {
						t.Errorf("metric %s not printed", metric)
					} else if got.Unit != unit {
						t.Errorf("metric %s printed in %q, declared in %q", metric, got.Unit, unit)
					}
				}
			})
		}
	}
}

// checkTrace parses a Chrome trace and checks its span tree: every parent
// exists, belongs to the same operation and encloses its child, and every
// self time is non-negative.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int   `json:"id"`
				Parent int   `json:"parent"`
				Op     int64 `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
		OtherData stamp `json:"otherData"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 || doc.OtherData.NProc == 0 {
		t.Fatalf("trace has %d events and stamp %+v", len(doc.TraceEvents), doc.OtherData)
	}
	const slack = 1.0 // µs of rounding in the microsecond timestamps
	byID := map[int]span{}
	var spans []span
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event %q has phase %q", e.Name, e.Ph)
		}
		s := span{ID: e.Args.ID, Parent: e.Args.Parent, Op: e.Args.Op, Name: e.Name,
			Start: time.Duration(e.Ts * 1e3), End: time.Duration((e.Ts + e.Dur) * 1e3)}
		byID[s.ID] = s
		spans = append(spans, s)
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		switch {
		case !ok:
			t.Fatalf("span %d (%s) has missing parent %d", s.ID, s.Name, s.Parent)
		case p.Op != s.Op:
			t.Fatalf("span %d (%s) is in op %d, its parent in op %d", s.ID, s.Name, s.Op, p.Op)
		case micros(s.Start) < micros(p.Start)-slack || micros(s.End) > micros(p.End)+slack:
			t.Fatalf("span %d (%s) lies outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for id, self := range selfTimes(spans) {
		if micros(self) < -slack {
			t.Fatalf("span %d has negative self time %v", id, self)
		}
	}
}

func TestCorruptedOutputIsCaught(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 7, window: 150 * time.Millisecond, tiny: true,
				specsDir: "../specs", nproc: 2, corrupt: true}
			res, _, err := measure(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("corrupted output passed verification: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(samples, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is a number")
	}
}

func TestTailNeedsTenSamplesBeyondIt(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{{999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}, {9999, 0.999, false}, {10000, 0.999, true}} {
		if got := reportable(c.n, c.q); got != c.want {
			t.Errorf("reportable(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Start: ms(0), End: ms(10)},
		{ID: 2, Parent: 1, Start: ms(1), End: ms(4)},
		{ID: 3, Parent: 1, Start: ms(3), End: ms(6)},  // overlaps 2: parallel children
		{ID: 4, Parent: 1, Start: ms(8), End: ms(12)}, // clipped to the parent
		{ID: 5, Parent: 3, Start: ms(4), End: ms(5)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: ms(3), 2: ms(3), 3: ms(2), 4: ms(4), 5: ms(1)} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v, %v, want 1, 3", q1, q3)
	}
}
