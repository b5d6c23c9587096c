package dynserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"iter"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/dynmon"
	"repro/dynserve/fault"
)

// Job lifecycle states.
const (
	jobQueued   = "queued"   // admitted, waiting for a worker slot
	jobRunning  = "running"  // stepping on a worker
	jobEvicted  = "evicted"  // parked on its checkpoint; re-attach resumes it
	jobDone     = "done"     // terminal Result available
	jobFailed   = "failed"   // stopped on an error (including budget expiry)
	jobCanceled = "canceled" // stopped by DELETE /v1/jobs/{id}
)

func jobTerminal(state string) bool {
	return state == jobDone || state == jobFailed || state == jobCanceled
}

// job is one durable run.  It executes detached from any client connection:
// disconnects never cancel it, the per-run budget (Config.RunTimeout) is the
// only clock.  Under load the server can evict it — snapshot a Checkpoint at
// the next round boundary and free the worker — and any later attach resumes
// it bit-identically from that checkpoint, which the engine pins equal to an
// uninterrupted run.
type job struct {
	id      string
	digest  string
	fs      *dynmon.FileSpec
	sys     *dynmon.System
	initial *dynmon.Coloring

	evict atomic.Bool // request: park at the next round boundary

	mu         sync.Mutex
	state      string
	round      int // last completed round seen
	cp         *dynmon.Checkpoint
	resultJSON []byte // compact terminal Result bytes (state done)
	errMsg     string // terminal error (state failed/canceled)
	subs       map[*jobSub]struct{}
	cancel     context.CancelFunc // current segment's budget
	finishedAt time.Time
}

// jobSub is one attached stream.  Step events are delivered best-effort (a
// slow client drops rounds rather than stalling the run); the terminal state
// is exact — channel close means "re-read the job", and the job's terminal
// fields are immutable once set.
type jobSub struct {
	ch chan streamEvent
}

// subscribe registers a live-stream subscriber, or returns nil with the
// state when the job is not running (terminal or evicted — the caller then
// replays or resumes).
func (j *job) subscribe() (*jobSub, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobQueued && j.state != jobRunning {
		return nil, j.state
	}
	sub := &jobSub{ch: make(chan streamEvent, 128)}
	j.subs[sub] = struct{}{}
	return sub, j.state
}

func (j *job) unsubscribe(sub *jobSub) {
	j.mu.Lock()
	if _, ok := j.subs[sub]; ok {
		delete(j.subs, sub)
	}
	j.mu.Unlock()
}

// broadcast fans an event to subscribers without blocking the run.
func (j *job) broadcast(ev streamEvent) {
	j.mu.Lock()
	for sub := range j.subs {
		select {
		case sub.ch <- ev:
		default: // lagging subscriber: drop the round, never stall the run
		}
	}
	j.mu.Unlock()
}

// closeSubs detaches and closes every subscriber channel (segment over).
func (j *job) closeSubs() {
	j.mu.Lock()
	subs := j.subs
	j.subs = make(map[*jobSub]struct{})
	j.mu.Unlock()
	for sub := range subs {
		close(sub.ch)
	}
}

// checkpointSink is the job's durability sink for the cadence
// (dynmon.CheckpointEvery): persist first (when a store is configured),
// then retain in memory — so the status a client polls never reports a
// checkpoint round the disk doesn't have.  A persist failure propagates
// through the stream and fails this job only.
func (s *Server) checkpointSink(j *job) func(*dynmon.Checkpoint) error {
	return func(cp *dynmon.Checkpoint) error {
		if s.store != nil {
			if err := s.store.SaveCheckpoint(j.id, cp); err != nil {
				s.metrics.CheckpointWriteErrors.Add(1)
				return err
			}
			s.metrics.CheckpointsPersisted.Add(1)
		}
		j.mu.Lock()
		j.cp = cp
		j.mu.Unlock()
		j.broadcast(streamEvent{kind: eventCheckpoint, round: cp.Round})
		return nil
	}
}

// persistJob snapshots a job's meta state to the store.  Transitions are
// already serialized per job (one runner segment at a time; cancellation of
// a parked job cannot race a runner), so last-writer-wins atomic replace is
// sound.
func (s *Server) persistJob(j *job) {
	if s.store == nil {
		return
	}
	j.mu.Lock()
	m := jobMeta{
		ID:              j.id,
		Digest:          j.digest,
		State:           j.state,
		Round:           j.round,
		CheckpointRound: -1,
		Error:           j.errMsg,
	}
	if j.cp != nil {
		m.CheckpointRound = j.cp.Round
	}
	if !j.finishedAt.IsZero() {
		m.FinishedAtNanos = j.finishedAt.UnixNano()
	}
	j.mu.Unlock()
	s.store.SaveMeta(m)
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Digest is the content address of the submitted run.
	Digest string `json:"digest"`
	// Round is the last completed round.
	Round int `json:"round"`
	// CheckpointRound is the round of the newest durable checkpoint, -1
	// when none has been taken yet.
	CheckpointRound int `json:"checkpoint_round"`
	// Error carries the terminal error for failed/canceled jobs.
	Error string `json:"error,omitempty"`
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{ID: j.id, State: j.state, Digest: j.digest, Round: j.round, CheckpointRound: -1}
	if j.cp != nil {
		st.CheckpointRound = j.cp.Round
	}
	st.Error = j.errMsg
	return st
}

// checkpointJSON returns the newest checkpoint's wire form, or nil.
func (j *job) checkpointJSON() ([]byte, error) {
	j.mu.Lock()
	cp := j.cp
	j.mu.Unlock()
	if cp == nil {
		return nil, nil
	}
	return cp.JSON()
}

// jobTable tracks jobs by id.  Terminal jobs linger for the retention
// window (so clients can still fetch their result), then purge lazily.
type jobTable struct {
	retention time.Duration
	seq       atomic.Int64

	// onPurge, when set, is called outside the table lock with the ids of
	// purged jobs — the store hook that deletes their directories.
	onPurge func(ids []string)

	mu   sync.Mutex
	byID map[string]*job
}

func newJobTable(retention time.Duration) *jobTable {
	return &jobTable{retention: retention, byID: make(map[string]*job)}
}

func (t *jobTable) nextSeq() int64 { return t.seq.Add(1) }

// setSeq advances the sequence to at least n (store recovery: never reuse a
// persisted id).
func (t *jobTable) setSeq(n int64) {
	for {
		cur := t.seq.Load()
		if cur >= n-1 || t.seq.CompareAndSwap(cur, n-1) {
			return
		}
	}
}

func (t *jobTable) put(j *job) {
	t.mu.Lock()
	t.byID[j.id] = j
	purged := t.purgeLocked()
	t.mu.Unlock()
	t.notifyPurge(purged)
}

func (t *jobTable) notifyPurge(ids []string) {
	if t.onPurge != nil && len(ids) > 0 {
		t.onPurge(ids)
	}
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	j, ok := t.byID[id]
	t.mu.Unlock()
	return j, ok
}

func (t *jobTable) remove(id string) {
	t.mu.Lock()
	delete(t.byID, id)
	t.mu.Unlock()
}

func (t *jobTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// list returns every job's status, sorted by id, purging expired ones.
func (t *jobTable) list() []JobStatus {
	t.mu.Lock()
	purged := t.purgeLocked()
	jobs := make([]*job, 0, len(t.byID))
	for _, j := range t.byID {
		jobs = append(jobs, j)
	}
	t.mu.Unlock()
	t.notifyPurge(purged)
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].id < jobs[k].id })
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.status()
	}
	return out
}

// purgeLocked drops terminal jobs past the retention window, returning the
// purged ids for the onPurge store hook.
func (t *jobTable) purgeLocked() []string {
	cutoff := time.Now().Add(-t.retention)
	var purged []string
	for id, j := range t.byID {
		j.mu.Lock()
		expired := jobTerminal(j.state) && !j.finishedAt.IsZero() && j.finishedAt.Before(cutoff)
		j.mu.Unlock()
		if expired {
			delete(t.byID, id)
			purged = append(purged, id)
		}
	}
	return purged
}

// evictAll asks every live job to park at its next round boundary — the
// drain path: workers free up, state survives as checkpoints.
func (t *jobTable) evictAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.byID {
		j.mu.Lock()
		live := j.state == jobQueued || j.state == jobRunning
		j.mu.Unlock()
		if live {
			j.evict.Store(true)
		}
	}
}

// evictOneIdle asks one running job with no attached streams to
// park — the load-shedding nudge: when admission sheds a request, an idle
// background job gives back its worker instead of starving interactive
// traffic.
func (t *jobTable) evictOneIdle() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.byID {
		j.mu.Lock()
		idle := j.state == jobRunning && len(j.subs) == 0 && !j.evict.Load()
		j.mu.Unlock()
		if idle {
			j.evict.Store(true)
			return
		}
	}
}

// newJob registers a job for a parsed spec.  The system and initial
// construction are built once here; the runner only steps.  With a store
// configured, the spec and initial state land on disk before the job is
// visible — from its first moment the job survives a crash.
func (s *Server) newJob(fs *dynmon.FileSpec, digest string) (*job, error) {
	sys, initial, err := s.buildRun(fs)
	if err != nil {
		return nil, err
	}
	j := &job{
		id:      s.newJobID(),
		digest:  digest,
		fs:      fs,
		sys:     sys,
		initial: initial,
		state:   jobEvicted, // parked with no checkpoint = not yet started
		subs:    make(map[*jobSub]struct{}),
	}
	if s.store != nil {
		if err := s.store.SaveSpec(j.id, fs); err != nil {
			return nil, fmt.Errorf("dynserve: persisting job spec: %w", err)
		}
		s.persistJob(j)
	}
	s.jobs.put(j)
	return j, nil
}

// completeFromCache settles a just-created job with a cached terminal
// result, without ever occupying a worker.
func (s *Server) completeFromCache(j *job, resJSON []byte) {
	j.mu.Lock()
	j.state = jobDone
	j.resultJSON = resJSON
	j.finishedAt = time.Now()
	j.mu.Unlock()
	if s.store != nil {
		s.store.SaveResult(j.id, resJSON)
		s.persistJob(j)
	}
}

// startJob admits the job (shed/drain decisions happen here, synchronously)
// and hands it to a runner goroutine.  Starting an already-live job is a
// no-op; starting a terminal one is an error.
func (s *Server) startJob(j *job) error {
	j.mu.Lock()
	switch {
	case j.state == jobQueued || j.state == jobRunning:
		j.mu.Unlock()
		return nil
	case jobTerminal(j.state):
		state := j.state
		j.mu.Unlock()
		return fmt.Errorf("dynserve: job %s is %s", j.id, state)
	}
	resumed := j.cp != nil
	j.state = jobQueued
	j.evict.Store(false)
	j.mu.Unlock()

	wait, err := s.admitAsync()
	if err != nil {
		j.mu.Lock()
		j.state = jobEvicted
		j.mu.Unlock()
		return err
	}
	if resumed {
		s.metrics.JobsResumed.Add(1)
	}
	s.persistJob(j)
	s.running.Add(1)
	go func() {
		defer s.running.Done()
		s.runJob(j, wait)
	}()
	return nil
}

// runJob executes one segment of a job: claim a worker slot, stream rounds
// from the initial configuration (or the parked checkpoint), broadcast them,
// and settle as done, failed, canceled or evicted.  A panic anywhere in the
// segment — the engine, a rule kernel, the fault-injected worker-panic
// failpoint — fails this job only: the deferred recover settles it as
// failed, the deferred release returns the slot, the process stays up.
func (s *Server) runJob(j *job, wait func(context.Context) (func(), error)) {
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.PanicsRecovered.Add(1)
			s.settleErr(j, fmt.Errorf("dynserve: job runner panicked: %v", rec))
		}
	}()

	ctx, cancel := context.WithCancel(s.baseCtx)
	if s.cfg.RunTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, s.cfg.RunTimeout)
	}
	defer cancel()

	j.mu.Lock()
	j.cancel = cancel
	cp := j.cp
	sys, initial := j.sys, j.initial
	j.mu.Unlock()

	release, err := wait(ctx)
	if err != nil {
		s.settleErr(j, err)
		return
	}
	defer release()

	if sys == nil {
		// Recovered job: the system was deliberately not rebuilt at boot
		// (recovery stays cheap and damage-tolerant); build it now, on the
		// worker's own time.
		if sys, initial, err = s.buildRun(j.fs); err != nil {
			s.settleErr(j, err)
			return
		}
		j.mu.Lock()
		j.sys, j.initial = sys, initial
		j.mu.Unlock()
	}

	if j.evict.Load() {
		// Evicted while waiting for a slot: park again without stepping
		// (the retained checkpoint, if any, stays the resume point).
		s.park(j, cp)
		return
	}

	j.mu.Lock()
	j.state = jobRunning
	j.mu.Unlock()
	s.persistJob(j)
	s.metrics.RunsStarted.Add(1)
	segStart := time.Now()

	opts := []dynmon.RunOption{dynmon.WithRunSpec(j.fs.Run)}
	if s.cfg.CheckpointEvery > 0 {
		opts = append(opts, dynmon.CheckpointEvery(s.cfg.CheckpointEvery, s.checkpointSink(j)))
	}
	var seq iter.Seq2[*dynmon.Step, error]
	if cp != nil {
		seq = sys.ResumeSteps(ctx, cp, opts...)
	} else {
		seq = sys.Steps(ctx, initial, opts...)
	}

	for st, err := range seq {
		if err != nil {
			s.settleErr(j, err)
			return
		}
		if fault.Fire(fault.WorkerPanic) {
			panic("fault: injected worker panic")
		}
		s.metrics.Steps.Add(1)
		j.mu.Lock()
		j.round = st.Round()
		j.mu.Unlock()
		j.broadcast(streamEvent{kind: eventStep, round: st.Round(), changed: st.Changed()})
		if st.Done() {
			s.observeRunDuration(time.Since(segStart))
			s.settleDone(j, st.Result())
			return
		}
		if j.evict.Load() {
			// Park at an exact round boundary: the checkpoint is taken from
			// this step, so no completed round is lost and the resumed run
			// is bit-identical to an uninterrupted one.
			cp, cerr := st.Checkpoint()
			if cerr != nil {
				s.settleErr(j, cerr)
				return
			}
			s.park(j, cp)
			return
		}
	}
	s.settleErr(j, errors.New("dynserve: run ended without a terminal result"))
}

// park settles a segment as evicted.  The eviction checkpoint is persisted
// before the job is declared parked; a durable-write failure here fails the
// job rather than silently parking it on state the disk doesn't have.
func (s *Server) park(j *job, cp *dynmon.Checkpoint) {
	if s.store != nil && cp != nil {
		if err := s.store.SaveCheckpoint(j.id, cp); err != nil {
			s.metrics.CheckpointWriteErrors.Add(1)
			s.settleErr(j, fmt.Errorf("dynserve: persisting eviction checkpoint: %w", err))
			return
		}
		s.metrics.CheckpointsPersisted.Add(1)
	}
	// Counted before the state is published, so whoever sees the job
	// evicted also sees it in the metrics.
	s.metrics.JobsEvicted.Add(1)
	j.mu.Lock()
	j.state = jobEvicted
	j.cp = cp
	j.cancel = nil
	j.mu.Unlock()
	s.persistJob(j)
	j.closeSubs()
}

// settleDone records the terminal Result: its compact JSON is the job's
// immutable answer, and — because the digest addresses the run's complete
// description — exactly the bytes the result cache may serve for it.
func (s *Server) settleDone(j *job, res *dynmon.Result) {
	b, err := json.Marshal(res)
	if err != nil {
		s.settleErr(j, err)
		return
	}
	j.mu.Lock()
	j.state = jobDone
	j.resultJSON = b
	j.cancel = nil
	j.finishedAt = time.Now()
	j.mu.Unlock()
	if s.store != nil {
		s.store.SaveResult(j.id, b)
		s.persistJob(j)
	}
	s.metrics.RunsCompleted.Add(1)
	s.metrics.CountKernel(res.Kernel.String())
	s.results.Put(j.digest, &cachedResult{json: b})
	j.closeSubs()
}

// settleErr records a terminal failure (or cancellation).
func (s *Server) settleErr(j *job, err error) {
	state := jobFailed
	if errors.Is(err, context.Canceled) {
		state = jobCanceled
	}
	j.mu.Lock()
	j.state = state
	j.errMsg = err.Error()
	j.cancel = nil
	j.finishedAt = time.Now()
	j.mu.Unlock()
	s.persistJob(j)
	s.metrics.RunsFailed.Add(1)
	j.closeSubs()
}

// cancelJob stops a job: live segments are canceled at the next round
// boundary, parked ones settle immediately.
func (s *Server) cancelJob(j *job) {
	j.mu.Lock()
	switch {
	case jobTerminal(j.state):
		j.mu.Unlock()
		return
	case j.state == jobEvicted:
		j.state = jobCanceled
		j.errMsg = context.Canceled.Error()
		j.finishedAt = time.Now()
		j.mu.Unlock()
		s.persistJob(j)
		j.closeSubs()
		return
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
