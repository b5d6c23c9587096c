package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/dynmon"
)

// runSpec is one spec run through the public API, timed layer by layer under
// a root span called name: parse, digest, system build, initial build,
// stepping and encoding — the path of `dynamosim -spec` and of a dynserve
// cache miss.  With cached set it stops after the digest, as a cache hit
// does.  With systems non-nil, systems are reused by digest, as the server's
// system cache does.  It returns the encoded Result and the root span's
// wall time.
func runSpec(tr *tracer, name string, op int64, lane int, body []byte, cached bool, systems map[string]*dynmon.System) ([]byte, time.Duration, error) {
	start := time.Now()
	root := tr.begin(name, op, 0, lane)
	defer tr.end(root)
	layer := func(layer string) int { return tr.begin(layer, op, root, lane) }

	id := layer("parse")
	fs, err := dynmon.ParseFileSpec(body)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = layer("digest")
	_, err = fs.Digest()
	tr.end(id)
	if err != nil || cached {
		return nil, time.Since(start), err
	}
	if fs.Initial == nil {
		return nil, 0, errors.New("spec has no initial section")
	}

	sys, err := buildSystem(tr, op, root, lane, &fs.System, systems)
	if err != nil {
		return nil, 0, err
	}
	target := fs.Run.Target
	if target == dynmon.None {
		target = 1
	}
	id = layer("build.initial")
	cons, err := sys.BuildInitial(fs.Initial, target)
	tr.end(id)
	if err != nil {
		return nil, 0, err
	}
	res, err := steps(tr, op, root, lane, sys, cons.Coloring, fs.Run)
	if err != nil {
		return nil, 0, err
	}
	id = layer("encode")
	b, err := json.Marshal(res)
	tr.set(id, "bytes", len(b))
	tr.end(id)
	return b, time.Since(start), err
}

// buildSystem builds the spec's System under a "build.system" span, or
// takes it from systems by digest, as the server's system cache does.
func buildSystem(tr *tracer, op int64, parent, lane int, sp *dynmon.Spec, systems map[string]*dynmon.System) (*dynmon.System, error) {
	var digest string
	if systems != nil {
		var err error
		if digest, err = sp.Digest(); err != nil {
			return nil, err
		}
		if sys, ok := systems[digest]; ok {
			return sys, nil
		}
	}
	id := tr.begin("build.system", op, parent, lane)
	sys, err := sp.New()
	tr.end(id)
	if err == nil && systems != nil {
		systems[digest] = sys
	}
	return sys, err
}

// steps drains the run's step stream under a "steps" span with one "round"
// child per yielded step, and records the work done on the steps span.
// Rounds can take well under a microsecond, so their ends are collected
// locally and recorded in one go.
func steps(tr *tracer, op int64, parent, lane int, sys *dynmon.System, initial *dynmon.Coloring, run dynmon.RunSpec) (*dynmon.Result, error) {
	id := tr.begin("steps", op, parent, lane)
	defer tr.end(id)
	var ends []time.Duration
	for st, err := range sys.Steps(context.Background(), initial, dynmon.WithRunSpec(run)) {
		if tr != nil {
			ends = append(ends, time.Since(tr.epoch))
		}
		if err != nil {
			return nil, err
		}
		if st.Done() {
			res := st.Result()
			tr.rounds(id, ends)
			setWork(tr, id, sys, res.Kernel.String(), 1, res.Rounds, res.Rounds)
			return res, nil
		}
	}
	return nil, errors.New("run ended without a terminal result")
}

// setWork records on a steps span the runs it stepped, their kernel, the
// rounds the span took and the vertex-rounds it computed.
func setWork(tr *tracer, id int, sys *dynmon.System, kernel string, runs, rounds, runRounds int) {
	tr.set(id, "kernel", kernel)
	tr.set(id, "runs", runs)
	tr.set(id, "rounds", rounds)
	tr.set(id, "vertex_rounds", int64(sys.N())*int64(runRounds))
}

// resultFields are the Result fields that say what happened, compared
// instead of whole bytes so a change to how-it-ran metadata (kernel,
// workers) does not read as a wrong answer.
type resultFields struct {
	Rounds          int             `json:"rounds"`
	Final           json.RawMessage `json:"final"`
	FirstReached    json.RawMessage `json:"first_reached"`
	ChangesPerRound json.RawMessage `json:"changes_per_round"`
}

// sameOutcome compares two encoded Results field by field.
func sameOutcome(a, b []byte) (bool, error) {
	var fa, fb resultFields
	if err := json.Unmarshal(a, &fa); err != nil {
		return false, fmt.Errorf("decoding result: %w", err)
	}
	if err := json.Unmarshal(b, &fb); err != nil {
		return false, fmt.Errorf("decoding reference result: %w", err)
	}
	return fa.Rounds == fb.Rounds && bytes.Equal(fa.Final, fb.Final) &&
		bytes.Equal(fa.FirstReached, fb.FirstReached) && bytes.Equal(fa.ChangesPerRound, fb.ChangesPerRound), nil
}

// corruptDigit changes the last decimal digit of an encoded output, which
// keeps it valid JSON but wrong; the package's tests use it to prove the
// verification catches a wrong output.
func corruptDigit(b []byte) {
	for i := len(b) - 1; i >= 0; i-- {
		if b[i] >= '0' && b[i] <= '9' {
			b[i] = '0' + (b[i]-'0'+1)%10
			return
		}
	}
}

// mix hashes its arguments into one 64-bit value (a splitmix64 finalizer
// over a running combination).  Every generated input derives from the
// run's seed through it.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
