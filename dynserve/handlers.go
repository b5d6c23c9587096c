package dynserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"strings"
	"time"

	"repro/dynmon"
	"repro/internal/color"
)

// stepSeq is the public step-stream shape shared with dynmon.
type stepSeq = iter.Seq2[*dynmon.Step, error]

// acceptsSSE reports whether the client asked for Server-Sent Events.
func acceptsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// acceptsBufferedJSON reports whether the client asked for the buffered
// terminal-result mode: no stream, just the Result's exact JSON bytes.
func acceptsBufferedJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/json")
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}

// writeJSON writes v as a JSON body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(v)
	w.Write(append(b, '\n'))
}

// readBody reads the request body under the size cap.  Oversized bodies are
// rejected with 413 before any parsing; the returned bool says whether the
// response has already been written.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit))
		} else {
			httpError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// parseSubmission decodes a run submission: a spec file (system + initial +
// run) or a checkpoint (resumes the run it describes).  The two are
// distinguished by their wire shape — only checkpoints carry a top-level
// "config" — and both parse strictly (truncated bodies and unknown fields
// are errors).
func parseSubmission(body []byte) (*dynmon.FileSpec, *dynmon.Checkpoint, error) {
	var probe struct {
		Config *json.RawMessage `json:"config"`
	}
	if err := json.Unmarshal(body, &probe); err != nil {
		return nil, nil, err
	}
	if probe.Config != nil {
		cp, err := dynmon.ParseCheckpoint(body)
		if err != nil {
			return nil, nil, err
		}
		return nil, cp, nil
	}
	fs, err := dynmon.ParseFileSpec(body)
	if err != nil {
		return nil, nil, err
	}
	return fs, nil, nil
}

// parseStatus is the status of a body that failed to parse: 400, except
// 422 for a well-formed body over a resource limit like the ones building a
// system enforces — cells above the color cap, an ensemble of too many runs.
func parseStatus(err error) int {
	if errors.Is(err, color.ErrCellColorTooLarge) || errors.Is(err, dynmon.ErrEnsembleTooLarge) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusBadRequest
}

// buildRun instantiates a spec's system (cached by digest) and initial
// configuration.
func (s *Server) buildRun(fs *dynmon.FileSpec) (*dynmon.System, *dynmon.Coloring, error) {
	sysDigest, err := fs.System.Digest()
	if err != nil {
		return nil, nil, err
	}
	sys, err := s.systemFor(sysDigest, &fs.System)
	if err != nil {
		return nil, nil, err
	}
	target := fs.Run.Target
	if target == dynmon.None {
		target = 1
	}
	if fs.Initial == nil {
		return nil, nil, errors.New("spec has no initial section")
	}
	cons, err := sys.BuildInitial(fs.Initial, target)
	if err != nil {
		return nil, nil, err
	}
	return sys, cons.Coloring, nil
}

// handleRun is POST /v1/runs: submit a spec (or checkpoint) and follow the
// run to its terminal Result on this connection.  Response modes:
//
//   - NDJSON (default): step events, then one result/error event whose
//     "result" field carries the terminal Result's exact bytes
//   - SSE (Accept: text/event-stream): the same events as SSE frames
//   - buffered (Accept: application/json): just the Result JSON
//
// Spec submissions are served from the result cache when the canonical
// digest hits; checkpoint submissions always execute (a resumed segment is
// not a complete run, so it is never cached — but its terminal Result is
// still bit-identical to the uninterrupted run's).
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	fs, cp, err := parseSubmission(body)
	if err != nil {
		httpError(w, parseStatus(err), err.Error())
		return
	}

	// Cache lookup (spec submissions only) — before admission, so hits cost
	// no worker slot.
	var digest string
	if fs != nil {
		if digest, err = fs.Digest(); err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if v, ok := s.results.Get(digest); ok {
			s.metrics.CacheHits.Add(1)
			s.serveResult(w, r, v.(*cachedResult).json, true)
			return
		}
		s.metrics.CacheMisses.Add(1)
	}

	release, err := s.acquire(r.Context())
	if err != nil {
		s.admissionError(w, err)
		return
	}
	defer release()

	ctx, cancel := s.runContext(r.Context())
	defer cancel()

	var (
		sys     *dynmon.System
		initial *dynmon.Coloring
	)
	if fs != nil {
		if sys, initial, err = s.buildRun(fs); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	} else {
		if cp.System == nil {
			httpError(w, http.StatusUnprocessableEntity, "checkpoint has no embedded system spec")
			return
		}
		sysDigest, derr := cp.System.Digest()
		if derr != nil {
			httpError(w, http.StatusUnprocessableEntity, derr.Error())
			return
		}
		if sys, err = s.systemFor(sysDigest, cp.System); err != nil {
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
	}

	s.metrics.RunsStarted.Add(1)
	started := time.Now()
	var seq = sys.Steps(ctx, initial, dynmon.WithRunSpec(fsRun(fs)))
	if cp != nil {
		// Resume re-applies the checkpoint's own run spec; a checkpoint
		// whose embedded state disagrees with its system (wrong dimensions,
		// mismatched spec) fails validation on the first pull below.
		seq = sys.ResumeSteps(ctx, cp)
	}

	if acceptsBufferedJSON(r) {
		s.runBuffered(w, seq, fs != nil, digest, started)
		return
	}
	s.runStreaming(w, r, seq, fs != nil, digest, started)
}

// fsRun returns the spec's run section (zero for checkpoint submissions,
// where it is unused).
func fsRun(fs *dynmon.FileSpec) dynmon.RunSpec {
	if fs == nil {
		return dynmon.RunSpec{}
	}
	return fs.Run
}

// runContext applies the per-run budget.
func (s *Server) runContext(parent context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.RunTimeout > 0 {
		return context.WithTimeout(parent, s.cfg.RunTimeout)
	}
	return context.WithCancel(parent)
}

// admissionError maps admission failures to statuses: 429 when shed, 503
// while draining.  The Retry-After on a shed reflects actual queue
// pressure — the estimated time to drain the current queue at the observed
// service rate — so backed-off clients return when capacity plausibly
// exists instead of hammering a fixed 1s cadence.
func (s *Server) admissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, errShed):
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		httpError(w, http.StatusTooManyRequests, "queue full, request shed")
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "server is draining")
	default:
		// Client went away while queued; nothing useful to write.
	}
}

// runBuffered drains the stream and answers with the terminal Result's
// exact JSON bytes — the mode CI diffs against the offline CLI.
func (s *Server) runBuffered(w http.ResponseWriter, seq stepSeq, cacheable bool, digest string, started time.Time) {
	var resJSON []byte
	for st, err := range seq {
		if err != nil {
			s.metrics.RunsFailed.Add(1)
			httpError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		s.metrics.Steps.Add(1)
		if st.Done() {
			resJSON = s.settleInline(st.Result(), cacheable, digest)
		}
	}
	if resJSON == nil {
		s.metrics.RunsFailed.Add(1)
		httpError(w, http.StatusInternalServerError, "run ended without a terminal result")
		return
	}
	s.observeRunDuration(time.Since(started))
	w.Header().Set("Content-Type", "application/json")
	writeLine(w, resJSON)
}

// writeLine writes b and a newline.  b may be a cached result shared by
// concurrent requests, so the newline is written separately instead of
// appended into b's spare capacity.
func writeLine(w http.ResponseWriter, b []byte) {
	w.Write(b)
	io.WriteString(w, "\n")
}

// runStreaming follows the stream over NDJSON or SSE.  Any error after the
// first event becomes a terminal error event (headers are long gone).
func (s *Server) runStreaming(w http.ResponseWriter, r *http.Request, seq stepSeq, cacheable bool, digest string, started time.Time) {
	out := s.streamWriter(w, r)
	for st, err := range seq {
		if err != nil {
			s.metrics.RunsFailed.Add(1)
			out.event(streamEvent{kind: eventError, err: err.Error()})
			return
		}
		s.metrics.Steps.Add(1)
		if st.Done() {
			resJSON := s.settleInline(st.Result(), cacheable, digest)
			s.observeRunDuration(time.Since(started))
			out.event(resultEvent(resJSON, false))
			return
		}
		if err := out.event(streamEvent{kind: eventStep, round: st.Round(), changed: st.Changed()}); err != nil {
			// Client gone: an inline run has no detached owner, stop it.
			s.metrics.RunsFailed.Add(1)
			return
		}
	}
	s.metrics.RunsFailed.Add(1)
	out.event(streamEvent{kind: eventError, err: "run ended without a terminal result"})
}

// settleInline records an inline run's terminal Result: metrics, kernel
// counts and (for spec submissions) the result cache.  It returns the
// Result's wire bytes.
func (s *Server) settleInline(res *dynmon.Result, cacheable bool, digest string) []byte {
	b := encodeResult(res)
	s.metrics.RunsCompleted.Add(1)
	s.metrics.CountKernel(res.Kernel.String())
	if cacheable {
		s.results.Put(digest, &cachedResult{json: b})
	}
	return b
}

// serveResult answers with an already-terminal result in the client's
// requested mode.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, resJSON []byte, cached bool) {
	if acceptsBufferedJSON(r) {
		w.Header().Set("Content-Type", "application/json")
		if cached {
			w.Header().Set("X-Dynmond-Cache", "hit")
		}
		writeLine(w, resJSON)
		return
	}
	writerFor(w, r).event(resultEvent(resJSON, cached))
}

// handleSubmitJob is POST /v1/jobs: register the spec as a detached job and
// answer 202 with its status immediately.  The job runs independently of
// any connection; attach with GET /v1/jobs/{id}.  A cache hit completes the
// job instantly without occupying a worker.
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	s.metrics.Requests.Add(1)
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	fs, cp, err := parseSubmission(body)
	if err != nil {
		httpError(w, parseStatus(err), err.Error())
		return
	}
	if cp != nil {
		httpError(w, http.StatusBadRequest, "jobs are submitted as spec files; POST checkpoints to /v1/runs")
		return
	}
	digest, err := fs.Digest()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	j, err := s.newJob(fs, digest)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	if v, ok := s.results.Get(digest); ok {
		s.metrics.CacheHits.Add(1)
		s.completeFromCache(j, v.(*cachedResult).json)
		writeJSON(w, http.StatusAccepted, j.status())
		return
	}
	s.metrics.CacheMisses.Add(1)
	if err := s.startJob(j); err != nil {
		s.jobs.remove(j.id)
		s.admissionError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleListJobs is GET /v1/jobs.
func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.jobs.list())
}

// handleAttachJob is GET /v1/jobs/{id}: (re-)attach to a job's stream.  An
// evicted job is resumed from its checkpoint — the reconnect path: the
// terminal Result is bit-identical to an uninterrupted run's.  In buffered
// mode (Accept: application/json) the handler blocks until the job is
// terminal and answers with the Result JSON alone.
func (s *Server) handleAttachJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	buffered := acceptsBufferedJSON(r)
	var out eventWriter
	if !buffered {
		out = s.streamWriter(w, r)
		st := j.status()
		out.event(streamEvent{kind: eventJob, status: &st})
	}

	for {
		sub, state := j.subscribe()
		if sub == nil {
			switch state {
			case jobDone:
				j.mu.Lock()
				resJSON := j.resultJSON
				j.mu.Unlock()
				if buffered {
					s.serveResult(w, r, resJSON, false)
				} else {
					out.event(resultEvent(resJSON, false))
				}
				return
			case jobFailed, jobCanceled:
				j.mu.Lock()
				msg := j.errMsg
				j.mu.Unlock()
				if buffered {
					httpError(w, http.StatusUnprocessableEntity, msg)
				} else {
					out.event(streamEvent{kind: eventError, err: msg})
				}
				return
			case jobEvicted:
				if err := s.startJob(j); err != nil {
					if buffered {
						s.admissionError(w, err)
					} else {
						out.event(streamEvent{kind: eventError, err: err.Error()})
					}
					return
				}
				continue
			}
		}
		if !s.followSegment(r, out, sub, j) {
			return
		}
	}
}

// followSegment relays one running segment's events to the client until the
// segment settles (channel close → true: re-read the job) or the client
// disconnects (false).
func (s *Server) followSegment(r *http.Request, out eventWriter, sub *jobSub, j *job) bool {
	defer j.unsubscribe(sub)
	for {
		select {
		case ev, ok := <-sub.ch:
			if !ok {
				if out != nil {
					j.mu.Lock()
					state, round := j.state, j.round
					j.mu.Unlock()
					if state == jobEvicted {
						out.event(streamEvent{kind: eventEvicted, round: round})
					}
				}
				return true
			}
			if out != nil {
				if err := out.event(ev); err != nil {
					return false // client gone; the job keeps running
				}
			}
		case <-r.Context().Done():
			return false
		}
	}
}

// handleJobCheckpoint is GET /v1/jobs/{id}/checkpoint: the newest durable
// checkpoint, as accepted by POST /v1/runs and the offline CLI's -resume.
func (s *Server) handleJobCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	b, err := j.checkpointJSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if b == nil {
		httpError(w, http.StatusNotFound, "job has no checkpoint yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleEvictJob is POST /v1/jobs/{id}/evict: checkpoint the job at its
// next round boundary and free its worker.  The job stays resumable.
func (s *Server) handleEvictJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	j.mu.Lock()
	live := j.state == jobQueued || j.state == jobRunning
	j.mu.Unlock()
	if live {
		j.evict.Store(true)
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleCancelJob is DELETE /v1/jobs/{id}.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	s.cancelJob(j)
	writeJSON(w, http.StatusOK, j.status())
}

// handleHealthz is GET /healthz: pure liveness.  It answers 200 as long as
// the process serves requests — draining included, because a draining
// server is alive and must not be restarted by its supervisor mid-drain.
// Routing decisions belong to /readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz is GET /readyz: readiness for load balancers.  503 while
// startup recovery is still restarting persisted jobs and from the moment
// SIGTERM drain begins — so balancers stop routing before the drain starts
// refusing submissions — 200 otherwise.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		httpError(w, http.StatusServiceUnavailable, "recovering persisted jobs")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ready\n"))
	}
}
