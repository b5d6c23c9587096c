package main

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynmon"
	"repro/dynserve"
)

// serveWorkload drives dynserve over a loopback TCP listener with a closed
// loop: nproc keep-alive connections, each sending its next buffered
// POST /v1/runs as soon as the previous reply arrives.
type serveWorkload struct {
	cfg    *config
	golden [][]byte // the golden spec files, served from the cache once warm

	srv     *dynserve.Server
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	url     string

	mu     sync.Mutex
	check  sampleSet // window responses kept for verification
	replay sampleSet // traced requests replayed through dynmon after the window

	next          atomic.Int64 // the next request index of the window stream
	before, after map[string]any
}

// Request streams: the window's and the warm-up's, drawn from the same mix.
const (
	streamWindow uint64 = iota + 1
	streamWarmup
	tagCheck
	tagReplay
)

const (
	checkSamples  = 256
	replaySamples = 1000
)

func newServe(cfg *config) workload {
	return &serveWorkload{cfg: cfg, check: sampleSet{k: checkSamples}, replay: sampleSet{k: replaySamples}}
}

// blockKinds lays out one block of 5 requests: one repeat of a golden spec
// (20%, a cache hit) and one of each of the four distinct kinds (20% each).
// The mix is a synthetic assumption, not a model of real clients.  The hits
// are the golden specs, the request set of CI's dynmond-e2e job; the
// distinct kinds put real stepping behind the misses.  At 20% hits the
// median request is a miss that steps for about 2 ms.  A hit takes ~0.07 ms,
// mostly loopback HTTP and scheduler wake-ups, which follow the host's
// scheduling: over ten runs alternated on a shared 2-core host, the median
// of an 80%-hit mix, a hit, spread 21% (IQR over the median) against 14%
// for this mix.
var blockKinds = [...]int{0, 1, 2, 3, 4}

// body generates request i of a stream.  Requests come in blocks of 5,
// shuffled by the seed, so every block has the same mix: a golden repeat,
// then distinct specs — minimum dynamos on the three tori, random 2-color
// meshes, random 5-color tori and Barabási–Albert graphs seeded at their
// hubs.  Golden specs, sizes and topologies cycle across blocks, so a
// window's mix does not depend on the seed; per-request seeds make each
// distinct spec's digest new.
func (w *serveWorkload) body(stream uint64, i int64) []byte {
	block, pos := uint64(i)/uint64(len(blockKinds)), int(i%int64(len(blockKinds)))
	perm := make([]int, len(blockKinds))
	for j := range perm {
		k := int(mix(w.cfg.seed, stream, block, uint64(j)) % uint64(j+1))
		perm[j], perm[k] = perm[k], j
	}
	slot := perm[pos]
	kind := blockKinds[slot]
	if kind == 0 {
		return w.golden[int(block)%len(w.golden)]
	}
	o := int(block) // this kind's occurrence number: one per block
	unique := mix(w.cfg.seed, stream, uint64(i))
	tori := []string{"toroidal-mesh", "torus-cordalis", "torus-serpentinus"}
	minSizes, meshSizes, side, graphN := []int{16, 32, 64, 128}, []int{32, 64, 96, 128, 160, 192, 224, 256}, 64, 500+100*(o%16)
	if w.cfg.tiny {
		minSizes, meshSizes, side, graphN = []int{8, 16}, []int{16, 32}, 16, 100+20*(o%6)
	}
	var fs dynmon.FileSpec
	switch kind {
	case 1:
		fs = dynmon.FileSpec{
			System:  torusSpec(tori[o%3], minSizes[o/3%len(minSizes)], 5),
			Initial: &dynmon.InitialSpec{Config: "minimum", Seed: unique},
			Run:     dynmon.RunSpec{Target: dynmon.Color(1 + unique%5), StopWhenMonochromatic: true, DetectCycles: true},
		}
	case 2:
		fs = dynmon.FileSpec{
			System:  torusSpec("toroidal-mesh", meshSizes[o%len(meshSizes)], 2),
			Initial: &dynmon.InitialSpec{Config: "random", Seed: unique},
			Run:     dynmon.RunSpec{Target: 1, MaxRounds: 64, DetectCycles: true},
		}
	case 3:
		fs = dynmon.FileSpec{
			System:  torusSpec(tori[o%3], side, 5),
			Initial: &dynmon.InitialSpec{Config: "random", Seed: unique},
			Run:     dynmon.RunSpec{Target: 1, MaxRounds: 32, DetectCycles: true},
		}
	default:
		fs = dynmon.FileSpec{
			System: dynmon.Spec{
				Substrate: dynmon.SubstrateSpec{Generator: &dynmon.GeneratorSpec{
					Name: "barabasi-albert", N: graphN, Params: map[string]float64{"m": 2}, Seed: unique}},
				Colors: 2,
				Rule:   "generalized-smp",
			},
			Initial: &dynmon.InitialSpec{Config: "hubs", Size: graphN / 4},
			Run:     dynmon.RunSpec{Target: 1, StopWhenMonochromatic: true, DetectCycles: true, MaxRounds: 2000},
		}
	}
	b, err := json.Marshal(&fs)
	if err != nil {
		panic(err) // the spec types always marshal
	}
	return b
}

func (w *serveWorkload) setup() error {
	if w.golden == nil {
		files, err := filepath.Glob(filepath.Join(w.cfg.specsDir, "*.json"))
		if err != nil || len(files) == 0 {
			return fmt.Errorf("no golden specs in %s", w.cfg.specsDir)
		}
		sort.Strings(files)
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			w.golden = append(w.golden, b)
		}
	}
	srv, err := dynserve.New(dynserve.Config{Workers: w.cfg.nproc})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = srv
	w.httpSrv = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.httpSrv.Serve(ln) }()
	w.url = "http://" + ln.Addr().String() + "/v1/runs"
	w.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: w.cfg.nproc,
		MaxConnsPerHost:     w.cfg.nproc,
		DisableCompression:  true,
	}}

	// Warm-up: every golden spec, then the warm-up stream.
	warm := int64(len(w.golden) + 500)
	if w.cfg.tiny {
		warm = int64(len(w.golden) + 20)
	}
	var n, failed atomic.Int64
	w.loop(w.cfg.nproc, func() (int64, bool) {
		i := n.Add(1) - 1
		return i, i < warm
	}, func(i int64) []byte {
		if i < int64(len(w.golden)) {
			return w.golden[i]
		}
		return w.body(streamWarmup, i)
	}, func(_ int, _ int64, _, _ time.Time, r reply) {
		if !r.ok() {
			failed.Add(1)
		}
	})
	if f := failed.Load(); f > 0 {
		return fmt.Errorf("%d warm-up requests failed", f)
	}
	return nil
}

// reply is one response as the client saw it.
type reply struct {
	status int
	hit    bool
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status == http.StatusOK }

// post sends one buffered run request.
func (w *serveWorkload) post(body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Accept", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return reply{status: resp.StatusCode, hit: resp.Header.Get("X-Dynmond-Cache") == "hit", body: b, err: err}
}

// loop is the closed loop: conns goroutines, each taking the next request
// index, sending it and waiting for the reply, until next says stop.  done
// sees every reply, outside the timed interval.
func (w *serveWorkload) loop(conns int, next func() (int64, bool), body func(int64) []byte, done func(conn int, i int64, start, end time.Time, r reply)) {
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for i, more := next(); more; i, more = next() {
				b := body(i)
				start := time.Now()
				r := w.post(b)
				done(conn, i, start, time.Now(), r)
			}
		}(c + 1)
	}
	wg.Wait()
}

// until returns a next func handing out window-stream indices until the
// deadline.
func (w *serveWorkload) until(deadline time.Time) func() (int64, bool) {
	return func() (int64, bool) {
		if !time.Now().Before(deadline) {
			return 0, false
		}
		return w.next.Add(1) - 1, true
	}
}

func (w *serveWorkload) window(until time.Time, rec *recorder) error {
	w.before = w.srv.Metrics().Snapshot()
	body := func(i int64) []byte { return w.body(streamWindow, i) }
	w.loop(w.cfg.nproc, w.until(until), body, func(conn int, i int64, t0, t1 time.Time, r reply) {
		tr := rec.tracerFor(i)
		tr.record("request", i, conn, t0, t1)
		rec.add(t1.Sub(t0), tr != nil, r.ok())
		if !r.ok() {
			return
		}
		w.mu.Lock()
		defer w.mu.Unlock()
		w.check.offer(sample{prio: mix(w.cfg.seed, tagCheck, uint64(i)), i: i, body: r.body})
		if tr != nil {
			w.replay.offer(sample{prio: mix(w.cfg.seed, tagReplay, uint64(i)), i: i, lat: t1.Sub(t0), hit: r.hit})
		}
	})
	w.after = w.srv.Metrics().Snapshot()
	return nil
}

// verify compares a seeded sample of response bodies byte for byte with the
// same specs run offline: FileSpec parse, build, Steps and json.Marshal.
func (w *serveWorkload) verify() (int, error) {
	items := w.check.sorted()
	if w.cfg.corrupt && len(items) > 0 {
		corruptDigit(items[0].body)
	}
	bad := 0
	for _, s := range items {
		want, _, err := runSpec(nil, "verify", s.i, 0, w.body(streamWindow, s.i), false, nil)
		if err != nil {
			return 0, fmt.Errorf("offline run of request %d: %w", s.i, err)
		}
		if !bytes.Equal(append(want, '\n'), s.body) {
			bad++
		}
	}
	return bad, nil
}

// layers replays a seeded sample of traced requests through dynmon — parse
// and digest for a cache hit, the whole run for a miss — and charges the
// rest of each request's wall time to dynserve and HTTP.  Requests run
// single-threaded on server workers, so the scaling metrics read 0 here.
func (w *serveWorkload) layers(tr *tracer, rec *recorder, m metrics) error {
	items := w.replay.sorted()
	// The server's system cache is warm: warm the replay's too, untimed,
	// with every torus system the sample uses (graph systems are new per
	// request, so the server built them too).
	systems := map[string]*dynmon.System{}
	for _, s := range items {
		fs, err := dynmon.ParseFileSpec(w.body(streamWindow, s.i))
		if err != nil {
			return err
		}
		if fs.System.Substrate.Topology != nil {
			if _, err := buildSystem(nil, 0, 0, 0, &fs.System, systems); err != nil {
				return err
			}
		}
	}
	var unattributed []float64
	var unattrSum, reqSum time.Duration
	for _, s := range items {
		_, d, err := runSpec(tr, "replay", s.i, 0, w.body(streamWindow, s.i), s.hit, systems)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", s.i, err)
		}
		unattributed = append(unattributed, float64(s.lat-d)/1e6)
		unattrSum += s.lat - d
		reqSum += s.lat
	}
	m["op.unattributed_ms_p50"] = quantile(unattributed, 0.5)
	m["op.layer_coverage"] = 1 - float64(unattrSum)/float64(reqSum)
	m["sim.scaling_speedup"] = 0
	m["sim.scaling_efficiency"] = 0

	delta := func(key string) float64 { return float64(counter(w.after, key) - counter(w.before, key)) }
	hits, misses := delta("cache_hits_total"), delta("cache_misses_total")
	m["dynserve.cache_hit_ratio"] = hits / (hits + misses)
	m["dynserve.shed_total"] = delta("shed_total")
	m["dynserve.runs_failed_total"] = delta("runs_failed_total")
	for _, tier := range []string{"bitplane", "sweep"} {
		m["sim.runs."+tier] = delta("runs_kernel_" + tier + "_total")
	}
	return nil
}

// counter reads one counter from a metrics snapshot (0 when absent).
func counter(snap map[string]any, key string) int64 {
	v, _ := snap[key].(int64)
	return v
}

func (w *serveWorkload) close() {
	if w.srv == nil {
		return
	}
	// Every request has been answered by now, so neither shutdown step has
	// anything to wait for; their deadline errors cannot occur.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.httpSrv.Shutdown(ctx)
	<-w.served
	_ = w.srv.Drain(ctx)
	w.client.CloseIdleConnections()
	w.srv = nil
}

// sample is one kept request.
type sample struct {
	prio uint64
	i    int64
	lat  time.Duration
	hit  bool
	body []byte
}

// sampleSet keeps the k offered samples of lowest priority, a seeded sample
// that does not depend on the order requests completed in.
type sampleSet struct {
	k     int
	items sampleHeap
}

func (s *sampleSet) offer(x sample) {
	if len(s.items) < s.k {
		heap.Push(&s.items, x)
		return
	}
	if x.prio < s.items[0].prio {
		s.items[0] = x
		heap.Fix(&s.items, 0)
	}
}

// sorted returns the kept samples in request order.
func (s *sampleSet) sorted() []sample {
	out := append([]sample(nil), s.items...)
	sort.Slice(out, func(i, j int) bool { return out[i].i < out[j].i })
	return out
}

// sampleHeap is a max-heap on priority.
type sampleHeap []sample

func (h sampleHeap) Len() int           { return len(h) }
func (h sampleHeap) Less(i, j int) bool { return h[i].prio > h[j].prio }
func (h sampleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sampleHeap) Push(x any)        { *h = append(*h, x.(sample)) }
func (h *sampleHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
