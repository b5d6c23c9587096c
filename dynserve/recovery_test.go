package dynserve

import (
	"bytes"
	"context"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/dynmon"
	"repro/dynserve/fault"
)

// fabricateCrash writes the on-disk state a kill -9 would leave behind: a
// job persisted as running with a checkpoint some rounds in.  Tests cannot
// kill goroutines, but the store's crash contract is purely about bytes on
// disk — atomic writes guarantee a real crash leaves exactly a state like
// this (a complete older version of every file, nothing half-written).
func fabricateCrash(t *testing.T, dir string, spec []byte, cpRound int) (id, digest string) {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := dynmon.ParseFileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if digest, err = fs.Digest(); err != nil {
		t.Fatal(err)
	}
	id = "j000001"
	if err := st.SaveSpec(id, fs); err != nil {
		t.Fatal(err)
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	var saved bool
	for step, serr := range sys.Steps(context.Background(), cons.Coloring, dynmon.WithRunSpec(fs.Run)) {
		if serr != nil {
			t.Fatal(serr)
		}
		if step.Round() == cpRound {
			cp, cerr := step.Checkpoint()
			if cerr != nil {
				t.Fatal(cerr)
			}
			if err := st.SaveCheckpoint(id, cp); err != nil {
				t.Fatal(err)
			}
			saved = true
			break
		}
	}
	if !saved {
		t.Fatalf("run ended before round %d, cannot fabricate a mid-run crash", cpRound)
	}
	meta := jobMeta{ID: id, Digest: digest, State: jobRunning, Round: cpRound, CheckpointRound: cpRound}
	if err := st.SaveMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveNextSeq(2); err != nil {
		t.Fatal(err)
	}
	return id, digest
}

// attachBuffered re-attaches to a job in buffered mode and returns the
// terminal Result bytes.
func attachBuffered(t *testing.T, url, id string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/v1/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, bytes.TrimSuffix(readAll(t, resp), []byte("\n"))
}

func waitReady(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !srv.ready.Load() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		runtime.Gosched()
	}
}

// TestRecoveryRestartsInterruptedJobBitIdentical is the headline crash pin:
// a server booted on a directory holding a job that was mid-run when the
// process died restarts it from its checkpoint, and the recovered terminal
// Result is byte-identical to an uninterrupted offline run — determinism
// makes crash recovery exact, not merely best-effort.
func TestRecoveryRestartsInterruptedJobBitIdentical(t *testing.T) {
	spec := longSpec(t)
	want := offlineResult(t, spec)
	dir := t.TempDir()
	id, _ := fabricateCrash(t, dir, spec, 10)

	srv, ts := newTestServer(t, Config{Workers: 1, CheckpointEvery: 10, DataDir: dir})
	if n := srv.metrics.JobsRecovered.Load(); n != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", n)
	}
	// The id resolves immediately, before recovery finishes.
	if _, ok := srv.jobs.get(id); !ok {
		t.Fatal("recovered job not registered at boot")
	}

	code, got := attachBuffered(t, ts.URL, id)
	if code != http.StatusOK {
		t.Fatalf("attach status %d: %s", code, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered job's Result differs from an uninterrupted offline run")
	}
	if n := srv.metrics.JobsResumed.Load(); n != 1 {
		t.Fatalf("JobsResumed = %d, want 1 (restart must resume the checkpoint, not rerun)", n)
	}

	// Second restart on the same directory: the job is terminal now, its
	// stored Result serves without any execution and still matches.
	srv2, ts2 := newTestServer(t, Config{Workers: 1, DataDir: dir})
	waitReady(t, srv2)
	code, got = attachBuffered(t, ts2.URL, id)
	if code != http.StatusOK {
		t.Fatalf("post-completion attach status %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stored Result served after restart differs from the offline run")
	}
	if n := srv2.metrics.RunsStarted.Load(); n != 0 {
		t.Fatalf("restart re-executed a done job (%d runs started)", n)
	}
}

// TestRecoveryReencodesLegacyResultWire pins the upgrade path of the
// Result wire: a done job persisted while Results still said how the run
// executed ("workers":2,"kernel":"parallel") boots ready, and both its job
// id and a /v1/runs cache hit for its digest answer with exactly the bytes
// a fresh run marshals to.  The checkpoint wire is untouched: the persisted
// checkpoint bytes stay as they were and serve verbatim.
func TestRecoveryReencodesLegacyResultWire(t *testing.T) {
	spec := []byte(`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":5,"rule":"smp"},` +
		`"initial":{"config":"minimum","seed":1},"run":{"target":1,"stop_when_monochromatic":true,"detect_cycles":true,"parallel":true}}`)
	want := offlineResult(t, spec)
	// The older wire put the metadata right after "rounds".
	i := bytes.IndexByte(want, ',') + 1
	legacy := append(append(append([]byte(nil), want[:i]...), `"workers":2,"kernel":"parallel",`...), want[i:]...)

	dir := t.TempDir()
	id, digest := fabricateCrash(t, dir, spec, 2)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult(id, legacy); err != nil {
		t.Fatal(err)
	}
	meta := jobMeta{ID: id, Digest: digest, State: jobDone, Round: 8, CheckpointRound: 2, FinishedAtNanos: time.Now().UnixNano()}
	if err := st.SaveMeta(meta); err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(dir, "jobs", id, storeCheckpointFile)
	cpBefore, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	waitReady(t, srv)
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, ready); ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz %d, want 200", ready.StatusCode)
	}

	code, got := attachBuffered(t, ts.URL, id)
	if code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("recovered job answered %d %s, want the fresh-run bytes %s", code, got, want)
	}
	resp := postRun(t, ts.URL, spec, "application/json")
	body := bytes.TrimSuffix(readAll(t, resp), []byte("\n"))
	if resp.Header.Get("X-Dynmond-Cache") != "hit" {
		t.Fatal("resubmitting the recovered digest missed the warmed cache")
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("cache hit answered %s, want the fresh-run bytes %s", body, want)
	}
	if n := srv.metrics.RunsStarted.Load(); n != 0 {
		t.Fatalf("recovery re-executed a done job (%d runs started)", n)
	}

	cpResp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	if served := readAll(t, cpResp); !bytes.Equal(served, cpBefore) {
		t.Fatalf("served checkpoint differs from the persisted bytes:\n got %s\nwant %s", served, cpBefore)
	}
	if cpAfter, err := os.ReadFile(cpPath); err != nil || !bytes.Equal(cpAfter, cpBefore) {
		t.Fatalf("recovery rewrote the persisted checkpoint (err %v)", err)
	}
}

// TestRecoveryCorruptResult: a done job whose persisted Result no longer
// decodes fails at boot with the damage named, instead of serving or
// caching the bytes, and the server still comes up ready.
func TestRecoveryCorruptResult(t *testing.T) {
	dir := t.TempDir()
	id, digest := fabricateCrash(t, dir, goldenSpec(t, "mesh-9x9-minimum.json"), 2)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult(id, []byte(`{"rounds":8,"final":{"rows":`)); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveMeta(jobMeta{ID: id, Digest: digest, State: jobDone}); err != nil {
		t.Fatal(err)
	}

	srv, _ := newTestServer(t, Config{Workers: 1, DataDir: dir})
	waitReady(t, srv)
	if cur := jobStatus(t, srv, id); cur.State != jobFailed || !strings.Contains(cur.Error, "persisted result corrupted") {
		t.Fatalf("job recovered as %q (%q), want failed naming the corrupted result", cur.State, cur.Error)
	}
	if _, ok := srv.results.Get(digest); ok {
		t.Fatal("a corrupted result warmed the cache")
	}
}

// TestRecoveryAfterDrainRoundTrip pins the graceful path: drain parks jobs
// on durable checkpoints, and a fresh server on the same directory resumes
// them to the uninterrupted run's exact bytes.
func TestRecoveryAfterDrainRoundTrip(t *testing.T) {
	spec := longSpec(t)
	want := offlineResult(t, spec)
	dir := t.TempDir()

	srv, ts := newTestServer(t, Config{Workers: 1, CheckpointEvery: 5, DataDir: dir})
	waitReady(t, srv)
	st := submitJob(t, ts.URL, spec)
	deadline := time.Now().Add(30 * time.Second)
	for jobStatus(t, srv, st.ID).Round < 5 {
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		runtime.Gosched()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	srv2, ts2 := newTestServer(t, Config{Workers: 1, CheckpointEvery: 5, DataDir: dir})
	waitReady(t, srv2)
	cur := jobStatus(t, srv2, st.ID)
	if cur.State != jobEvicted {
		t.Fatalf("recovered job state %q, want evicted (parked by drain)", cur.State)
	}
	if cur.CheckpointRound < 0 {
		t.Fatal("recovered job lost its checkpoint")
	}
	code, got := attachBuffered(t, ts2.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("attach status %d", code)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("drain/restart/resume Result differs from an uninterrupted offline run")
	}
}

// TestRecoveryCorruptCheckpoint pins damage tolerance end to end: a
// truncated checkpoint fails that one job — its status carries the reason —
// while the server boots and serves everything else.
func TestRecoveryCorruptCheckpoint(t *testing.T) {
	spec := longSpec(t)
	dir := t.TempDir()
	id, _ := fabricateCrash(t, dir, spec, 10)
	cpPath := filepath.Join(dir, "jobs", id, storeCheckpointFile)
	b, err := os.ReadFile(cpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpPath, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})
	waitReady(t, srv)
	cur := jobStatus(t, srv, id)
	if cur.State != jobFailed {
		t.Fatalf("job with corrupt checkpoint recovered as %q, want failed", cur.State)
	}
	if cur.Error == "" {
		t.Fatal("failed recovery carries no error message")
	}
	if n := srv.metrics.JobsRecoveryFailed.Load(); n != 1 {
		t.Fatalf("JobsRecoveryFailed = %d, want 1", n)
	}
	// The server is fully functional: an unrelated inline run completes.
	resp := postRun(t, ts.URL, goldenSpec(t, "mesh-9x9-minimum.json"), "application/json")
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("inline run after damaged recovery: status %d", resp.StatusCode)
	}
}

// TestReadyzDuringRecovery pins the probe split: while startup recovery is
// still running /readyz answers 503 (don't route traffic yet) but /healthz
// answers 200 (don't kill the pod for recovering).
func TestReadyzDuringRecovery(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	if err := fault.Arm(fault.RecoverySlow, "sleep:300ms"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	fabricateCrash(t, dir, longSpec(t), 10)
	srv, ts := newTestServer(t, Config{Workers: 1, DataDir: dir})

	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		readAll(t, resp)
		return resp.StatusCode
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during recovery %d, want 200", code)
	}
	waitReady(t, srv)
	if code := get("/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after recovery %d, want 200", code)
	}
}
