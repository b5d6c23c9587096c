// Command bench is the repository's end-to-end benchmark.  It drives the
// system only through its public entry points — dynmon specs, runs and
// ensembles, and the dynserve HTTP server on a loopback listener — times
// each call from outside, checks every output after the timed window, and
// prints one JSON result line:
//
//	bash bench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// per-layer metrics, computed from spans kept in memory and written as a
// Chrome trace.  See README.md for the workloads and the metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	traceOut string
	tiny     bool   // small inputs, for the package's tests
	specsDir string // the golden spec files
	runs     int    // >1: repeat in fresh processes and summarize
	nproc    int    // every concurrency knob
	// corrupt flips one byte of a kept output before verification; the
	// package's tests use it to prove the checks catch a wrong output.
	corrupt bool
}

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup builds fresh inputs and state, then runs the first operation on
	// them and any warm-up.
	setup() error
	// window runs operations until the deadline, recording each in rec.
	window(until time.Time, rec *recorder) error
	// verify checks the outputs kept from the window and returns the number
	// of mismatches.
	verify() (int, error)
	// layers runs the trace-mode probes (their spans go to tr) and adds the
	// workload's own layer numbers to m.
	layers(tr *tracer, rec *recorder, m metrics) error
	// close stops everything setup started and waits for it.
	close()
}

var workloads = map[string]func(*config) workload{
	"serve-mixed":            newServe,
	"torus-1024":             newTorus,
	"ensemble-noisy":         func(c *config) workload { return newEnsemble(c, true) },
	"ensemble-deterministic": func(c *config) workload { return newEnsemble(c, false) },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, perLayer those of a traced
// run; BENCHMARK.json declares the same two lists.
var endToEnd = []metricDef{
	{"latency_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"dynserve.cache_hit_ratio", "ratio"},
	{"dynserve.shed_total", "count"},
	{"dynserve.runs_failed_total", "count"},
	{"dynmon.parse_us_p50", "us"},
	{"dynmon.digest_us_p50", "us"},
	{"dynmon.system_build_ms_p50", "ms"},
	{"dynmon.initial_build_ms_p50", "ms"},
	{"dynmon.encode_ms_p50", "ms"},
	{"dynmon.encode_bytes_p50", "bytes"},
	{"sim.step_ms_p50", "ms"},
	{"sim.ns_per_vertex_round", "ns"},
	{"sim.vertex_rounds", "count"},
	{"sim.runs.bitplane", "count"},
	{"sim.runs.sweep", "count"},
	{"sim.scaling_speedup", "ratio"},
	{"sim.scaling_efficiency", "ratio"},
	{"sim.bitsliced_lane_utilization", "ratio"},
	{"op.unattributed_ms_p50", "ms"},
	{"op.layer_coverage", "ratio"},
	{"go.alloc_mb_per_op", "MiB"},
	{"go.gc_count_per_op", "count"},
	{"go.gc_pause_ms_total", "ms"},
	{"trace_overhead_pct", "%"},
}

// metrics maps metric names to values.
type metrics map[string]float64

// recorder collects the window's operations.  In a traced run every other
// operation is traced, so the untraced half gives the tracing overhead.
type recorder struct {
	tr *tracer // nil in an untraced run

	mu       sync.Mutex
	untraced []time.Duration
	traced   []time.Duration
	failed   int
}

// tracerFor returns the tracer for operation i, or nil when it runs untraced.
func (r *recorder) tracerFor(i int64) *tracer {
	if i%2 == 0 {
		return r.tr
	}
	return nil
}

// add records one finished operation.
func (r *recorder) add(lat time.Duration, traced, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if traced {
		r.traced = append(r.traced, lat)
	} else {
		r.untraced = append(r.untraced, lat)
	}
	if !ok {
		r.failed++
	}
}

func (r *recorder) ops() int { return len(r.traced) + len(r.untraced) }

// result is what one run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the machine and the run a number came from.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Revision   string `json:"revision"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Samples    int    `json:"samples"`
}

func machineStamp(cfg *config) stamp {
	st := stamp{CPU: cpuModel(), NProc: cfg.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Revision: "unknown", Workload: cfg.workload, Seed: cfg.seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				st.Revision = s.Value
			}
		}
	}
	return st
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupRepeats is how many times a run sets its workload up; setup_s is the
// median.  Only the first set-up runs in a cold process, so the median is a
// warm set-up; the first one is printed on the info line.
const setupRepeats = 3

// measure runs one workload: set-up, the timed window, verification and, in
// a traced run, the probes; it returns the result line and an info line.
func measure(cfg *config) (*result, string, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	w := mk(cfg)
	defer w.close()

	setups := make([]float64, setupRepeats)
	for i := range setups {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, "", fmt.Errorf("setup: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}

	rec := &recorder{}
	if cfg.trace {
		rec.tr = newTracer()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	if err := w.window(start.Add(cfg.window), rec); err != nil {
		return nil, "", fmt.Errorf("window: %w", err)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	rss := peakRSSMiB()
	if rec.ops() == 0 {
		return nil, "", errors.New("window: no operation completed")
	}

	mismatches, err := w.verify()
	if err != nil {
		return nil, "", fmt.Errorf("verify: %w", err)
	}
	failed := rec.failed + mismatches
	res := &result{Correct: failed == 0, Attempted: rec.ops(), Failed: failed, Metrics: map[string]metricValue{}}
	all := append(append([]time.Duration(nil), rec.untraced...), rec.traced...)
	info := fmt.Sprintf("ops=%d failed=%d first_setup_s=%.4f latency_p50_ms=%.4f", rec.ops(), failed, setups[0], quantile(millis(all), 0.5))
	if reportable(len(all), 0.99) {
		info += fmt.Sprintf(" latency_p99_ms=%.4f", quantile(millis(all), 0.99))
	}

	m := metrics{}
	defs := endToEnd
	if !cfg.trace {
		m["latency_p50_ms"] = quantile(millis(rec.untraced), 0.5)
		m["ops_per_s"] = float64(rec.ops()) / elapsed.Seconds()
		m["setup_s"] = quantile(setups, 0.5)
		m["peak_rss_mb"] = rss
	} else {
		defs = perLayer
		ops := float64(rec.ops())
		m["go.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / ops
		// Collections the benchmark forces between operations do not count.
		m["go.gc_count_per_op"] = float64((after.NumGC-after.NumForcedGC)-(before.NumGC-before.NumForcedGC)) / ops
		m["go.gc_pause_ms_total"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
		m["trace_overhead_pct"] = 100 * (quantile(millis(rec.traced), 0.5)/quantile(millis(rec.untraced), 0.5) - 1)
		// The layers a workload bypasses read zero.
		for _, d := range perLayer {
			if strings.HasPrefix(d.name, "dynserve.") || strings.HasPrefix(d.name, "sim.runs.") ||
				d.name == "sim.bitsliced_lane_utilization" {
				m[d.name] = 0
			}
		}
		if err := w.layers(rec.tr, rec, m); err != nil {
			return nil, "", fmt.Errorf("layers: %w", err)
		}
		spans := rec.tr.snapshot()
		spanMetrics(spans, m)
		st := machineStamp(cfg)
		st.Samples = rec.ops()
		if err := writeChromeTrace(cfg.traceOut, spans, st); err != nil {
			return nil, "", fmt.Errorf("writing trace: %w", err)
		}
		info += " trace=" + cfg.traceOut
	}
	for _, d := range defs {
		v, ok := m[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, "", fmt.Errorf("metric %s has no value", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	return res, info, nil
}

// spanMetrics derives the layer metrics every workload shares from the
// recorded spans.
func spanMetrics(spans []span, m metrics) {
	byName := map[string][]float64{}
	hasRounds := map[int]bool{}
	var roundMs []float64
	var encodeBytes []float64
	var stepNanos, vertexRounds float64
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur()))
		switch s.Name {
		case "round":
			hasRounds[s.Parent] = true
			roundMs = append(roundMs, float64(s.dur())/1e6)
		case "encode":
			encodeBytes = append(encodeBytes, argFloat(s, "bytes"))
		case "steps":
			stepNanos += float64(s.dur())
			vertexRounds += argFloat(s, "vertex_rounds")
		}
	}
	// A batch steps all its lanes at once and yields no per-round spans; its
	// rounds count as batch rounds of equal length.
	for _, s := range spans {
		if rounds := argFloat(s, "rounds"); s.Name == "steps" && !hasRounds[s.ID] && rounds > 0 {
			roundMs = append(roundMs, float64(s.dur())/1e6/rounds)
		}
	}
	p50 := func(name string, unit time.Duration) float64 {
		return quantile(byName[name], 0.5) / float64(unit)
	}
	m["dynmon.parse_us_p50"] = p50("parse", time.Microsecond)
	m["dynmon.digest_us_p50"] = p50("digest", time.Microsecond)
	m["dynmon.system_build_ms_p50"] = p50("build.system", time.Millisecond)
	m["dynmon.initial_build_ms_p50"] = p50("build.initial", time.Millisecond)
	m["dynmon.encode_ms_p50"] = p50("encode", time.Millisecond)
	m["dynmon.encode_bytes_p50"] = quantile(encodeBytes, 0.5)
	m["sim.step_ms_p50"] = quantile(roundMs, 0.5)
	m["sim.ns_per_vertex_round"] = stepNanos / vertexRounds
	m["sim.vertex_rounds"] = vertexRounds
}

// argFloat reads a numeric span argument (0 when absent).
func argFloat(s span, key string) float64 {
	switch v := s.Args[key].(type) {
	case int:
		return float64(v)
	case int64:
		return float64(v)
	case float64:
		return v
	}
	return 0
}

// kernelCounts adds to the declared sim.runs.<tier> counts the runs of the
// traced steps spans.
func kernelCounts(spans []span, m metrics) {
	for _, s := range spans {
		k, _ := s.Args["kernel"].(string)
		if _, declared := m["sim.runs."+k]; declared && s.Name == "steps" {
			m["sim.runs."+k] += argFloat(s, "runs")
		}
	}
}

// runCLI parses the flags, runs the benchmark and returns the exit code.
func runCLI(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg     = config{nproc: runtime.NumCPU()}
		seconds float64
		trace   int
		scale   string
	)
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", ")+" (with -runs, empty means all)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1: trace the run and print the per-layer metrics; 0: print the end-to-end metrics")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace file of a traced run (default .bench_build/traces/<workload>-<seed>.json)")
	fs.StringVar(&scale, "scale", "full", "input sizes: full, or tiny for quick checks")
	fs.StringVar(&cfg.specsDir, "specs", "specs", "directory of the golden spec files")
	fs.IntVar(&cfg.runs, "runs", 1, "run each workload this many times in fresh processes and print each metric's median and spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if scale != "full" && scale != "tiny" || trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "bench: want --scale full or tiny and --trace 0 or 1, have %q and %d\n", scale, trace)
		return 2
	}
	cfg.tiny = scale == "tiny"
	cfg.trace = trace == 1
	cfg.window = time.Duration(seconds * float64(time.Second))
	if cfg.runs > 1 {
		return repeat(&cfg, stdout, stderr)
	}
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.json", cfg.workload, cfg.seed))
	}
	res, info, err := measure(&cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	st := machineStamp(&cfg)
	st.Samples = res.Attempted
	// Strings, integers and finite floats (measure checked them) always
	// marshal.
	sb, _ := json.Marshal(st)
	out, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "# %s %s\n%s\n", sb, info, out)
	if !res.Correct {
		return 1
	}
	return 0
}

func main() { os.Exit(runCLI(os.Args[1:], os.Stdout, os.Stderr)) }
