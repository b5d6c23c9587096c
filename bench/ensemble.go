package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynmon"
)

// ensembleWorkload is one Monte-Carlo ensemble per operation, parse to
// report JSON: a density sweep on a 2-color mesh, either ε-faulty (every
// replica on the scalar sweep) or deterministic (64 replicas per bit-sliced
// batch).
type ensembleWorkload struct {
	cfg   *config
	noisy bool
	spec  []byte
	first []byte // the first window operation's report
	// serial is the wall time of the workers=1 run of the same spec, the
	// base of the scaling speed-up.
	serial time.Duration
}

func newEnsemble(cfg *config, noisy bool) workload { return &ensembleWorkload{cfg: cfg, noisy: noisy} }

func (w *ensembleWorkload) ensembleSpec() *dynmon.EnsembleSpec {
	n, replicas, rounds := 128, 64, 96
	if w.cfg.tiny {
		n, rounds = 16, 24
	}
	es := &dynmon.EnsembleSpec{
		System:           torusSpec("toroidal-mesh", n, 2),
		Initial:          dynmon.InitialSpec{Config: "bernoulli"},
		Run:              dynmon.RunSpec{MaxRounds: rounds, Target: 1},
		Replicas:         replicas,
		Seed:             mix(w.cfg.seed, 2),
		TakeoverFraction: 0.75,
		Sweep:            &dynmon.SweepSpec{Axis: "density", Values: []float64{0.4, 0.5, 0.55, 0.6}},
	}
	if w.noisy {
		es.Replicas = 16
		es.Run.Noise = &dynmon.NoiseSpec{Eps: 0.01}
	}
	return es
}

func (w *ensembleWorkload) setup() error {
	spec, err := json.Marshal(w.ensembleSpec())
	if err != nil {
		return err
	}
	w.spec = spec
	_, err = runEnsemble(nil, 0, w.spec, w.cfg.nproc)
	return err
}

// runEnsemble is one ensemble through the public API, timed layer by layer:
// parse, digest (NewEnsemble validates and digests), the run and the report
// encoding.
func runEnsemble(tr *tracer, op int64, body []byte, workers int) ([]byte, error) {
	root := tr.begin("op", op, 0, 0)
	defer tr.end(root)
	id := tr.begin("parse", op, root, 0)
	es, err := dynmon.ParseEnsembleSpec(body)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("digest", op, root, 0)
	e, err := dynmon.NewEnsemble(es, workers)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("ensemble.run", op, root, 0)
	rep, err := e.Run(context.Background())
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("encode", op, root, 0)
	b, err := rep.JSON()
	tr.set(id, "bytes", len(b))
	tr.end(id)
	return b, err
}

func (w *ensembleWorkload) window(until time.Time, rec *recorder) error {
	w.first = sequential(until, rec, func(tr *tracer, op int64) ([]byte, error) {
		return runEnsemble(tr, op, w.spec, w.cfg.nproc)
	})
	return nil
}

// verify compares the report with a workers=1 run of the same spec.
func (w *ensembleWorkload) verify() (int, error) {
	if w.first == nil {
		return 0, nil
	}
	start := time.Now()
	want, err := runEnsemble(nil, 0, w.spec, 1)
	w.serial = time.Since(start)
	if err != nil {
		return 0, fmt.Errorf("workers=1 run: %w", err)
	}
	if w.cfg.corrupt {
		corruptDigit(w.first)
	}
	if bytes.Equal(w.first, want) {
		return 0, nil
	}
	return 1, nil
}

// layers probes the opaque ensemble run: every sweep point is built and
// stepped again through the public API — BuildInitial per replica, then
// Session.RunBatch (deterministic) or System.Run per replica on nproc
// goroutines (noisy) — with replica seeds of the probe's own, so the
// ensemble's time splits into build, stepping and the harness's own
// remainder.
func (w *ensembleWorkload) layers(tr *tracer, rec *recorder, m metrics) error {
	es := w.ensembleSpec()
	const probeOp = -1
	start := time.Now()
	probe := tr.begin("probe", probeOp, 0, 0)
	id := tr.begin("build.system", probeOp, probe, 0)
	sys, err := es.System.New()
	tr.end(id)
	if err != nil {
		return err
	}
	var laneRounds, laneSlots float64
	for i, density := range es.Sweep.Values {
		initials := make([]*dynmon.Coloring, es.Replicas)
		for r := range initials {
			id := tr.begin("build.initial", probeOp, probe, 0)
			ispec := dynmon.InitialSpec{Config: "bernoulli", Density: density, Seed: mix(w.cfg.seed, 3, uint64(i), uint64(r))}
			cons, err := sys.BuildInitial(&ispec, 1)
			tr.end(id)
			if err != nil {
				return err
			}
			initials[r] = cons.Coloring
		}
		if !w.noisy {
			rounds, slots, err := probeBatch(tr, probeOp, probe, sys, initials, es.Run, w.cfg.nproc)
			if err != nil {
				return err
			}
			laneRounds += rounds
			laneSlots += slots
			continue
		}
		if err := probeNoisy(tr, probeOp, probe, sys, initials, es.Run, w.cfg, i); err != nil {
			return err
		}
	}
	tr.end(probe)
	probeWall := time.Since(start)

	// Attribute each traced operation: its parse, digest and encode spans,
	// plus the probe's wall time for the run; the rest is the harness.
	spans := tr.snapshot()
	attributed := map[int]time.Duration{}
	for _, s := range spans {
		if s.Op > 0 && s.Parent != 0 && s.Name != "ensemble.run" {
			attributed[s.Parent] += s.dur()
		}
	}
	var unattributed []float64
	var unattrSum, opSum time.Duration
	for _, s := range spans {
		if s.Name == "op" && s.Op > 0 {
			u := s.dur() - attributed[s.ID] - probeWall
			unattributed = append(unattributed, float64(u)/1e6)
			unattrSum += u
			opSum += s.dur()
		}
	}
	m["op.unattributed_ms_p50"] = quantile(unattributed, 0.5)
	m["op.layer_coverage"] = 1 - float64(unattrSum)/float64(opSum)

	all := append(append([]time.Duration(nil), rec.untraced...), rec.traced...)
	m["sim.scaling_speedup"] = float64(w.serial) / 1e6 / quantile(millis(all), 0.5)
	m["sim.scaling_efficiency"] = m["sim.scaling_speedup"] / float64(w.cfg.nproc)
	if laneSlots > 0 {
		m["sim.bitsliced_lane_utilization"] = laneRounds / laneSlots
	}
	kernelCounts(spans, m)
	return nil
}

// probeBatch steps one point's replicas as the ensemble does for
// deterministic dynamics, through Session.RunBatch, and returns the replica
// rounds and the lane-round slots of the 64-lane words they rode in.
func probeBatch(tr *tracer, op int64, parent int, sys *dynmon.System, initials []*dynmon.Coloring, run dynmon.RunSpec, workers int) (rounds, slots float64, err error) {
	id := tr.begin("steps", op, parent, 0)
	results, err := sys.NewSession(workers).RunBatch(context.Background(), initials, dynmon.WithRunSpec(run))
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	const lanes = 64
	total, longest := 0, 0
	for lo := 0; lo < len(results); lo += lanes {
		word := 0
		for _, res := range results[lo:min(lo+lanes, len(results))] {
			total += res.Rounds
			word = max(word, res.Rounds)
		}
		slots += float64(lanes * word)
		longest = max(longest, word)
	}
	setWork(tr, id, sys, results[0].Kernel.String(), len(results), longest, total)
	return float64(total), slots, nil
}

// probeNoisy steps one point's replicas as the ensemble does for stochastic
// dynamics: one System.Run per replica, each with its own noise seed, on a
// pool of nproc goroutines.
func probeNoisy(tr *tracer, op int64, parent int, sys *dynmon.System, initials []*dynmon.Coloring, run dynmon.RunSpec, cfg *config, point int) error {
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		first   error
	)
	for g := 0; g < cfg.nproc; g++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for r := int(next.Add(1) - 1); r < len(initials); r = int(next.Add(1) - 1) {
				rs := run
				rs.Noise = &dynmon.NoiseSpec{Eps: run.Noise.Eps, Seed: mix(cfg.seed, 4, uint64(point), uint64(r))}
				id := tr.begin("steps", op, parent, lane)
				res, err := sys.Run(context.Background(), initials[r], dynmon.WithRunSpec(rs))
				tr.end(id)
				if err != nil {
					errOnce.Do(func() { first = err })
					return
				}
				setWork(tr, id, sys, res.Kernel.String(), 1, res.Rounds, res.Rounds)
			}
		}(g + 1)
	}
	wg.Wait()
	return first
}

func (w *ensembleWorkload) close() {}
