// Package dynserve turns the dynmon library into infrastructure: an HTTP
// service ("dynmond", see cmd/dynmond) that accepts declarative run specs,
// executes them on a bounded worker pool with admission control, and streams
// each round back as NDJSON or Server-Sent Events, ending with the terminal
// Result.
//
// The design leans entirely on the library's determinism contract.  Every
// run is a pure function of its wire description (dynmon.FileSpec: system +
// initial + run), so:
//
//   - Results are cached by canonical spec digest (FileSpec.Digest).  Equal
//     digests imply byte-identical terminal Results, which makes cache hits
//     provably correct — the cache can only ever return exactly the bytes a
//     fresh run would produce.
//   - Long runs are durable jobs: the server snapshots them on a checkpoint
//     cadence (dynmon.CheckpointEvery), can evict them under load, and
//     resumes bit-identically when a client re-attaches (GET /v1/jobs/{id})
//     — the engine pins resumed runs equal to uninterrupted ones.
//
// Endpoints:
//
//	POST   /v1/runs                submit a spec (or a checkpoint) and stream
//	                               the run: NDJSON by default, SSE with
//	                               Accept: text/event-stream, buffered
//	                               terminal Result JSON with
//	                               Accept: application/json
//	POST   /v1/batch               submit a batch spec (one system + run,
//	                               many initial items) and get one Result
//	                               per item keyed by per-item digest; items
//	                               share the /v1/runs result cache, and
//	                               eligible ensembles step on the
//	                               bit-sliced 64-replicas-per-word tier
//	POST   /v1/ensembles           submit an ensemble spec
//	                               (dynmon.EnsembleSpec: system + run +
//	                               replicas + seed + optional sweep) and get
//	                               the Monte-Carlo report; cached whole by
//	                               EnsembleSpec.Digest — the report is a
//	                               pure function of the spec, so a hit
//	                               returns exactly the bytes a fresh run
//	                               would produce and costs no worker slot
//	POST   /v1/jobs                submit a spec as a detached job; returns
//	                               202 with the job id immediately
//	GET    /v1/jobs                list jobs
//	GET    /v1/jobs/{id}           (re-)attach to a job's stream; resumes an
//	                               evicted job from its checkpoint
//	GET    /v1/jobs/{id}/checkpoint  latest durable checkpoint of the job
//	POST   /v1/jobs/{id}/evict     checkpoint the job and free its worker
//	DELETE /v1/jobs/{id}           cancel the job
//	GET    /healthz                liveness: 200 whenever the process serves
//	GET    /readyz                 readiness: 503 during startup recovery and
//	                               while draining, 200 otherwise
//	GET    /metrics                Prometheus text metrics
//
// Admission control keeps the server upright under overload: at most
// Config.Workers runs execute at once, at most Config.QueueDepth submissions
// wait for a slot, and everything beyond that is shed with 429 rather than
// queued into collapse — the Retry-After on a shed reflects the actual queue
// pressure.  Per-request budgets ride the ordinary context plumbing — the
// engine observes cancellation at every round boundary.
//
// With Config.DataDir set, jobs are durable across crashes: every job's
// spec, state and newest checkpoint live on disk (atomic replace writes), a
// restarted server re-attaches parked jobs and restarts previously-running
// ones from their last checkpoint, and — because resumed runs are pinned
// bit-identical to uninterrupted ones — the recovered terminal Result is
// byte-for-byte the one the crash interrupted.  A done job's stored Result
// is decoded and re-encoded at boot, so bytes written under an older Result
// wire never answer a digest differently from a fresh run.  Failure paths
// (worker panics, checkpoint I/O errors, dropped streams) are testable via
// the repro/dynserve/fault failpoint package; injected worker panics and
// checkpoint-write errors fail only the affected job.
package dynserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynmon"
	"repro/dynserve/fault"
)

// Config tunes the server.  The zero value is usable: every field has a
// production-shaped default, applied by New.
type Config struct {
	// Workers bounds the number of simulations executing concurrently
	// (default GOMAXPROCS).  This is the Session-style pool bound: the unit
	// of parallelism is the request, so each run steps sequentially.
	Workers int
	// QueueDepth bounds how many admitted submissions may wait for a worker
	// slot (default 64).  Beyond it the server sheds with 429.
	QueueDepth int
	// CacheEntries bounds the result cache (default 1024 terminal results).
	CacheEntries int
	// SystemCacheEntries bounds the built-system cache (default 64 systems);
	// systems are immutable and safely shared across runs, so caching them
	// amortizes substrate construction (graph generation, CSR indexing).
	SystemCacheEntries int
	// MaxRequestBytes caps request bodies (default 1 MiB).  Oversized specs
	// are rejected with 413 before any parsing.
	MaxRequestBytes int64
	// CheckpointEvery is the durability cadence in rounds (default 64):
	// every running job keeps a checkpoint at most this many rounds old, the
	// state evicted jobs resume from.  0 disables cadence checkpoints (jobs
	// then checkpoint only at eviction steps).
	CheckpointEvery int
	// RunTimeout is the per-run budget (default 5m; <0 disables).  It rides
	// context cancellation: a run over budget stops at the next round
	// boundary and the job reports the cancellation.
	RunTimeout time.Duration
	// JobRetention is how long terminal jobs stay listable (default 15m).
	JobRetention time.Duration
	// DataDir, when set, makes jobs durable: specs, states and checkpoints
	// persist under this directory (atomic write-temp → fsync → rename) and
	// a restarted server recovers them — parked jobs re-attach, jobs that
	// were running restart from their newest checkpoint.  Empty keeps jobs
	// in memory only.
	DataDir string
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.SystemCacheEntries <= 0 {
		c.SystemCacheEntries = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	if c.CheckpointEvery < 0 {
		c.CheckpointEvery = 0
	}
	if c.RunTimeout == 0 {
		c.RunTimeout = 5 * time.Minute
	}
	if c.RunTimeout < 0 {
		c.RunTimeout = 0
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 15 * time.Minute
	}
	return c
}

// Server is the dynmond HTTP service.  Create one with New, mount Handler on
// any http.Server, and call Drain on shutdown.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *Metrics
	results *lruCache // FileSpec digest -> cachedResult
	systems *lruCache // system Spec digest -> *dynmon.System
	jobs    *jobTable
	store   *Store // nil without Config.DataDir

	// Admission: sem holds the worker slots, queued counts waiters.
	sem    chan struct{}
	queued atomic.Int64

	// avgRunNanos is an EWMA of recent run durations, the basis of the
	// queue-pressure Retry-After estimate on shed responses.
	avgRunNanos atomic.Int64

	// sysBuild serializes substrate construction per digest so a thundering
	// herd of identical cold specs builds one system, not N.
	sysBuild sync.Mutex

	ready    atomic.Bool // startup recovery finished; /readyz gates on this
	draining atomic.Bool
	baseCtx  context.Context
	cancel   context.CancelFunc
	running  sync.WaitGroup
}

// cachedResult is one terminal result by digest: the exact bytes a fresh run
// marshals to.
type cachedResult struct {
	json []byte
}

// encodeBufs holds the buffers encodeResult writes Results into.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// encodeResult returns res's wire bytes, json.Marshal(res)'s, in a slice
// whose capacity is its length: the result cache keeps up to its bound of
// them, so none may carry the slack of a buffer grown while writing.  The
// Result is written once, into a pooled buffer, and copied out.
func encodeResult(res *dynmon.Result) []byte {
	buf := encodeBufs.Get().(*[]byte)
	enc := res.AppendJSON((*buf)[:0])
	b := make([]byte, len(enc))
	copy(b, enc)
	*buf = enc
	encodeBufs.Put(buf)
	return b
}

// New returns a ready Server.  With Config.DataDir set it opens the durable
// job store and recovers persisted jobs: every job is registered before New
// returns (so ids resolve immediately), while previously-running jobs
// restart from their checkpoints in the background — /readyz answers 503
// until that recovery pass has finished.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: NewMetrics(),
		sem:     make(chan struct{}, cfg.Workers),
	}
	s.results = newLRUCache(cfg.CacheEntries, func() { s.metrics.CacheEvictions.Add(1) })
	s.systems = newLRUCache(cfg.SystemCacheEntries, nil)
	s.jobs = newJobTable(cfg.JobRetention)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.metrics.QueueDepth = func() int64 { return s.queued.Load() }
	s.metrics.InFlight = func() int64 { return int64(len(s.sem)) }
	s.metrics.CacheEntries = func() int64 { return int64(s.results.Len()) }
	s.metrics.JobsLive = func() int64 { return int64(s.jobs.Len()) }
	s.metrics.Ready = func() int64 {
		if s.ready.Load() && !s.draining.Load() {
			return 1
		}
		return 0
	}
	s.metrics.FaultsFired = fault.FiredTotal
	s.routes()

	if cfg.DataDir == "" {
		s.ready.Store(true)
		return s, nil
	}
	store, err := OpenStore(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	s.store = store
	s.jobs.onPurge = func(ids []string) {
		for _, id := range ids {
			store.DeleteJob(id)
		}
	}
	restart, err := s.recoverJobs()
	if err != nil {
		return nil, err
	}
	go s.finishRecovery(restart)
	return s, nil
}

// Handler returns the server's HTTP handler: the endpoint mux behind the
// panic-recovery middleware, so a handler panic answers 500 and bumps a
// counter instead of killing the connection opaquely.
func (s *Server) Handler() http.Handler { return s.withRecovery(s.mux) }

// withRecovery is the handler-chain recovery layer.  It also hosts the
// handler-panic failpoint, so fault injection exercises exactly this path.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // deliberate abort, not a fault
				panic(rec)
			}
			s.metrics.PanicsRecovered.Add(1)
			// Best effort: if the handler already streamed a partial body the
			// status line is gone, but the connection still ends.
			httpError(w, http.StatusInternalServerError, fmt.Sprintf("internal panic: %v", rec))
		}()
		if fault.Fire(fault.HandlerPanic) {
			panic("fault: injected handler panic")
		}
		next.ServeHTTP(w, r)
	})
}

// Metrics exposes the server's counters (for embedding, e.g. expvar).
func (s *Server) Metrics() *Metrics { return s.metrics }

// routes mounts the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/runs", s.handleRun)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/ensembles", s.handleEnsemble)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleAttachJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleJobCheckpoint)
	s.mux.HandleFunc("POST /v1/jobs/{id}/evict", s.handleEvictJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.metrics.ServePrometheus)
}

// Drain gracefully stops the server: new submissions are refused with 503,
// running jobs are asked to evict (checkpointing their state), and Drain
// waits for every runner to settle — up to ctx's deadline, after which the
// base context is canceled and stragglers stop at their next round boundary.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.jobs.evictAll()
	done := make(chan struct{})
	go func() {
		s.running.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancel()
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Admission errors.
var (
	errShed     = errors.New("dynserve: queue full, request shed")
	errDraining = errors.New("dynserve: server is draining")
)

// admitAsync makes the admission decision synchronously — errShed when the
// queue bound is exceeded (admission control sheds instead of queuing into
// collapse), errDraining during shutdown — and returns a wait func that
// claims a worker slot, blocking until one frees or the context ends.  The
// split lets job submission answer 202/429 immediately while the runner
// waits for its slot.  On a shed it also nudges an idle detached job to
// evict, so sustained pressure frees capacity instead of starving.
func (s *Server) admitAsync() (func(ctx context.Context) (func(), error), error) {
	if s.draining.Load() {
		return nil, errDraining
	}
	if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.metrics.Shed.Add(1)
		s.jobs.evictOneIdle()
		return nil, errShed
	}
	return func(ctx context.Context) (func(), error) {
		defer s.queued.Add(-1)
		select {
		case s.sem <- struct{}{}:
			return func() { <-s.sem }, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, nil
}

// acquire is the synchronous form of admitAsync: admit and claim in one
// call, as the streaming run endpoint needs.
func (s *Server) acquire(ctx context.Context) (func(), error) {
	wait, err := s.admitAsync()
	if err != nil {
		return nil, err
	}
	return wait(ctx)
}

// systemFor builds (or returns the cached) System for a canonical system
// spec digest.
func (s *Server) systemFor(digest string, spec *dynmon.Spec) (*dynmon.System, error) {
	if v, ok := s.systems.Get(digest); ok {
		return v.(*dynmon.System), nil
	}
	// One build per cold digest: substrate construction (graph generation,
	// CSR indexing) can be the most expensive part of a request, and a
	// thundering herd of identical specs should pay it once.
	s.sysBuild.Lock()
	defer s.sysBuild.Unlock()
	if v, ok := s.systems.Get(digest); ok {
		return v.(*dynmon.System), nil
	}
	sys, err := spec.New()
	if err != nil {
		return nil, err
	}
	s.systems.Put(digest, sys)
	return sys, nil
}

// newJobID mints a job id unique across the store's whole lifetime: the
// sequence high-water mark is persisted, so restarts never reuse an id.
func (s *Server) newJobID() string {
	seq := s.jobs.nextSeq()
	if s.store != nil {
		s.store.SaveNextSeq(seq + 1)
	}
	return fmt.Sprintf("j%06d", seq)
}

// observeRunDuration feeds the service-time EWMA behind the Retry-After
// estimate (α = 1/8; a heuristic, so the racy read-modify-write is fine).
func (s *Server) observeRunDuration(d time.Duration) {
	old := s.avgRunNanos.Load()
	if old == 0 {
		s.avgRunNanos.Store(int64(d))
		return
	}
	s.avgRunNanos.Store(old + (int64(d)-old)/8)
}

// retryAfterSeconds estimates when a shed client should retry: the current
// queue drained at the observed service rate, clamped to [1s, 60s].  Before
// any run has completed the estimate is the 1s floor.
func (s *Server) retryAfterSeconds() string {
	secs := 1
	if avg := s.avgRunNanos.Load(); avg > 0 {
		est := time.Duration((s.queued.Load() + 1) * avg / int64(s.cfg.Workers))
		secs = int((est + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		if secs > 60 {
			secs = 60
		}
	}
	return strconv.Itoa(secs)
}

// recoverJobs registers every persisted job synchronously (ids resolve the
// moment New returns) and reports which ones need restarting.  Per-job
// damage — truncated checkpoint, garbage metadata — fails that job and is
// surfaced on its status; it never stops the server from booting.
func (s *Server) recoverJobs() ([]*job, error) {
	persisted, nextSeq, err := s.store.Load()
	if err != nil {
		return nil, err
	}
	s.jobs.setSeq(nextSeq)
	var restart []*job
	for _, pj := range persisted {
		j, needsRestart := s.rebuildJob(pj)
		s.jobs.put(j)
		s.metrics.JobsRecovered.Add(1)
		if needsRestart {
			restart = append(restart, j)
		}
	}
	return restart, nil
}

// rebuildJob turns one persisted entry back into a live job.  The System is
// not built here — recovery must stay cheap and damage-tolerant; the runner
// builds it on the job's first restarted segment.
func (s *Server) rebuildJob(pj persistedJob) (*job, bool) {
	j := &job{
		id:     pj.id,
		digest: pj.meta.Digest,
		round:  pj.meta.Round,
		subs:   make(map[*jobSub]struct{}),
	}
	fail := func(err error) (*job, bool) {
		j.state = jobFailed
		j.errMsg = err.Error()
		j.finishedAt = time.Now()
		s.metrics.JobsRecoveryFailed.Add(1)
		s.persistJob(j)
		return j, false
	}
	if pj.err != nil {
		return fail(pj.err)
	}
	fs, err := dynmon.ParseFileSpec(pj.spec)
	if err != nil {
		return fail(fmt.Errorf("persisted spec corrupted: %w", err))
	}
	j.fs = fs
	if pj.checkpoint != nil {
		cp, err := dynmon.ParseCheckpoint(pj.checkpoint)
		if err != nil {
			return fail(fmt.Errorf("persisted checkpoint corrupted: %w", err))
		}
		j.cp = cp
		if cp.Round > j.round {
			j.round = cp.Round
		}
	}
	switch pj.meta.State {
	case jobDone:
		// Re-encode the persisted bytes before serving or caching them, so
		// a Result stored under an older wire form answers with exactly the
		// bytes a fresh run of the same digest marshals to.
		var res dynmon.Result
		if err := json.Unmarshal(pj.result, &res); err != nil {
			return fail(fmt.Errorf("persisted result corrupted: %w", err))
		}
		resJSON := encodeResult(&res)
		j.state = jobDone
		j.resultJSON = resJSON
		j.finishedAt = finishedAtOf(pj.meta)
		s.results.Put(j.digest, &cachedResult{json: resJSON}) // warm the cache
		return j, false
	case jobFailed, jobCanceled:
		j.state = pj.meta.State
		j.errMsg = pj.meta.Error
		j.finishedAt = finishedAtOf(pj.meta)
		return j, false
	case jobEvicted:
		// Parked at shutdown (or crash between segments): stays parked; the
		// next attach resumes it from its checkpoint.
		j.state = jobEvicted
		return j, false
	case jobQueued, jobRunning:
		// Interrupted mid-run by the crash: park it on whatever checkpoint
		// survived (none means restart from round 0 — still exact, the run
		// is a pure function of its spec) and restart it.
		j.state = jobEvicted
		return j, true
	default:
		return fail(fmt.Errorf("persisted state %q unknown", pj.meta.State))
	}
}

// finishRecovery restarts the jobs the crash interrupted, then flips the
// server ready.  A restart refused by admission (pool already saturated)
// leaves the job parked — any later attach resumes it, nothing is lost.
func (s *Server) finishRecovery(restart []*job) {
	fault.Fire(fault.RecoverySlow)
	for _, j := range restart {
		s.startJob(j)
	}
	s.ready.Store(true)
}

// finishedAtOf recovers a terminal job's finish time, defaulting to "now"
// (restarting the retention clock) when the persisted stamp is missing.
func finishedAtOf(m jobMeta) time.Time {
	if m.FinishedAtNanos > 0 {
		return time.Unix(0, m.FinishedAtNanos)
	}
	return time.Now()
}
