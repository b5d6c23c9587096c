package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/dynmon"
)

// torusWorkload is the offline `dynamosim -spec` path on a large torus: one
// spec run per operation, parse to encoded bytes, with parallel stepping on
// nproc workers.
type torusWorkload struct {
	cfg   *config
	spec  []byte
	first []byte // the first window operation's Result
	// refSteps is the stepping time of the single-thread sweep reference,
	// the base of the scaling speed-up.
	refSteps time.Duration
}

func newTorus(cfg *config) workload { return &torusWorkload{cfg: cfg} }

// fileSpec is the workload's spec; kernel "sweep" gives the single-thread
// reference run of the same system and initial configuration.
func (w *torusWorkload) fileSpec(kernel string) ([]byte, error) {
	n := 1024
	if w.cfg.tiny {
		n = 64
	}
	fs := dynmon.FileSpec{
		System:  torusSpec("toroidal-mesh", n, 5),
		Initial: &dynmon.InitialSpec{Config: "random", Seed: mix(w.cfg.seed, 1)},
		Run:     dynmon.RunSpec{Target: 1, MaxRounds: 32, Parallel: true, Workers: w.cfg.nproc},
	}
	if kernel != "" {
		fs.Run.Parallel, fs.Run.Workers, fs.Run.Kernel = false, 0, kernel
	}
	return json.Marshal(&fs)
}

func torusSpec(name string, n, colors int) dynmon.Spec {
	return dynmon.Spec{
		Substrate: dynmon.SubstrateSpec{Topology: &dynmon.TopologySpec{Name: name, Rows: n, Cols: n}},
		Colors:    colors,
		Rule:      "smp",
	}
}

func (w *torusWorkload) setup() error {
	spec, err := w.fileSpec("")
	if err != nil {
		return err
	}
	w.spec = spec
	_, _, err = runSpec(nil, "op", 0, 0, w.spec, false, nil)
	return err
}

func (w *torusWorkload) window(until time.Time, rec *recorder) error {
	w.first = sequential(until, rec, func(tr *tracer, op int64) ([]byte, error) {
		b, _, err := runSpec(tr, "op", op, 0, w.spec, false, nil)
		return b, err
	})
	return nil
}

// sequential runs one operation after another until the deadline and
// returns the first one's output; every later output must repeat it, since
// every operation runs the same spec.  Each operation starts on a freshly
// collected heap, as each `dynamosim -spec` or `dynamomc` invocation starts
// in a fresh process; the collection is not timed.
func sequential(until time.Time, rec *recorder, op func(tr *tracer, op int64) ([]byte, error)) []byte {
	var first []byte
	for i := int64(0); time.Now().Before(until); i++ {
		runtime.GC()
		tr := rec.tracerFor(i)
		start := time.Now()
		b, err := op(tr, i+1)
		lat := time.Since(start)
		ok := err == nil
		if ok && first == nil {
			first = b
		} else if ok {
			ok = bytes.Equal(b, first)
		}
		rec.add(lat, tr != nil, ok)
	}
	return first
}

// verify compares the run with the single-thread sweep reference.
func (w *torusWorkload) verify() (int, error) {
	if w.first == nil {
		return 0, nil
	}
	ref, err := w.fileSpec("sweep")
	if err != nil {
		return 0, err
	}
	reftr := newTracer()
	want, _, err := runSpec(reftr, "reference", 0, 0, ref, false, nil)
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	for _, s := range reftr.snapshot() {
		if s.Name == "steps" {
			w.refSteps = s.dur()
		}
	}
	if w.cfg.corrupt {
		corruptDigit(w.first)
	}
	same, err := sameOutcome(w.first, want)
	if err != nil || same {
		return 0, err
	}
	return 1, nil
}

func (w *torusWorkload) layers(tr *tracer, rec *recorder, m metrics) error {
	spans := tr.snapshot()
	var stepMs []float64
	for _, s := range spans {
		if s.Name == "steps" {
			stepMs = append(stepMs, float64(s.dur())/1e6)
		}
	}
	m["sim.scaling_speedup"] = float64(w.refSteps) / 1e6 / quantile(stepMs, 0.5)
	m["sim.scaling_efficiency"] = m["sim.scaling_speedup"] / float64(w.cfg.nproc)
	opSelf(spans, m)
	kernelCounts(spans, m)
	return nil
}

// opSelf sets the unattributed time and the layer coverage from the self
// time of the operations' root spans: what no layer span accounts for.
func opSelf(spans []span, m metrics) {
	self := selfTimes(spans)
	var unattributed []float64
	var selfSum, opSum time.Duration
	for _, s := range spans {
		if s.Name == "op" {
			unattributed = append(unattributed, float64(self[s.ID])/1e6)
			selfSum += self[s.ID]
			opSum += s.dur()
		}
	}
	m["op.unattributed_ms_p50"] = quantile(unattributed, 0.5)
	m["op.layer_coverage"] = 1 - float64(selfSum)/float64(opSum)
}

func (w *torusWorkload) close() {}
