package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// repeat runs the workload (every workload when none is named) cfg.runs
// times, each run in a fresh process with its own seed, round-robin across
// workloads, and prints every metric's median and spread: (max-min)/median
// and the interquartile range over the median.
func repeat(cfg *config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = workloadNames()
	}
	scale := "full"
	if cfg.tiny {
		scale = "tiny"
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string]map[string][]float64{}
	units := map[string]string{}
	var info []string
	for r := 0; r < cfg.runs; r++ {
		for _, name := range names {
			seed := strconv.FormatUint(cfg.seed+uint64(r), 10)
			cmd := exec.Command(exe, "--workload", name, "--seed", seed, "--trace", trace, "--scale", scale,
				"--seconds", strconv.FormatFloat(cfg.window.Seconds(), 'g', -1, 64), "--specs", cfg.specsDir)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %s: %v\n", name, seed, err)
				return 1
			}
			lines := lastLines(out, 2)
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %s: %v\n", name, seed, err)
				return 1
			}
			info = append(info, lines[0])
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for k, v := range res.Metrics {
				values[name][k] = append(values[name][k], v.Value)
				units[k] = v.Unit
			}
		}
	}
	for _, l := range info {
		fmt.Fprintln(stdout, l)
	}
	type row struct {
		Unit   string    `json:"unit"`
		Median float64   `json:"median"`
		Range  float64   `json:"range_over_median"`
		IQR    float64   `json:"iqr_over_median"`
		Values []float64 `json:"values"`
	}
	summary := map[string]map[string]row{}
	fmt.Fprintf(stdout, "%-24s %-32s %-6s %14s %8s %8s\n", "workload", "metric", "unit", "median", "range", "iqr")
	for _, name := range names {
		summary[name] = map[string]row{}
		keys := make([]string, 0, len(values[name]))
		for k := range values[name] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vs := values[name][k]
			med := quantile(vs, 0.5)
			s := append([]float64(nil), vs...)
			sort.Float64s(s)
			q1, q3 := quartiles(s)
			r := row{Unit: units[k], Median: med, Range: (s[len(s)-1] - s[0]) / med, IQR: (q3 - q1) / med, Values: vs}
			summary[name][k] = r
			fmt.Fprintf(stdout, "%-24s %-32s %-6s %14.6g %7.1f%% %7.1f%%\n", name, k, r.Unit, med, 100*r.Range, 100*r.IQR)
		}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// quartiles returns the first and third quartiles of sorted values by the
// "exclusive" method (Python's statistics.quantiles default).
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - 4*j)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// lastLines returns the last n non-empty lines of out.
func lastLines(out []byte, n int) []string {
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if sc.Text() != "" {
			lines = append(lines, sc.Text())
		}
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return lines
}
