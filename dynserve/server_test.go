package dynserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/dynmon"
)

// goldenSpec reads one of the repository's golden spec files.
func goldenSpec(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "specs", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// offlineResult runs a spec through the library directly — the reference
// the server's streamed and cached results must match byte for byte.
func offlineResult(t *testing.T, specJSON []byte) []byte {
	t.Helper()
	fs, err := dynmon.ParseFileSpec(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), cons.Coloring, dynmon.WithRunSpec(fs.Run))
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postRun(t *testing.T, url string, body []byte, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunBufferedColdAndCached pins the cache/determinism contract over
// HTTP: the buffered response carries exactly the bytes an offline library
// run produces, cold and cached alike, and the metrics see one miss then
// one hit.
func TestRunBufferedColdAndCached(t *testing.T) {
	spec := goldenSpec(t, "ba-200-hubs.json")
	want := offlineResult(t, spec)
	srv, ts := newTestServer(t, Config{Workers: 2})

	resp := postRun(t, ts.URL, spec, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run status %d", resp.StatusCode)
	}
	if got := readAll(t, resp); !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
		t.Fatalf("cold buffered result differs from offline run:\n got %s\nwant %s", got, want)
	}
	if h, m := srv.metrics.CacheHits.Load(), srv.metrics.CacheMisses.Load(); h != 0 || m != 1 {
		t.Fatalf("after cold run: hits=%d misses=%d, want 0/1", h, m)
	}

	resp = postRun(t, ts.URL, spec, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached run status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Dynmond-Cache") != "hit" {
		t.Fatal("second submission did not hit the cache")
	}
	if got := readAll(t, resp); !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
		t.Fatalf("cached result differs from offline run")
	}
	if h, m := srv.metrics.CacheHits.Load(), srv.metrics.CacheMisses.Load(); h != 1 || m != 1 {
		t.Fatalf("after cached run: hits=%d misses=%d, want 1/1", h, m)
	}
	if rate := srv.metrics.CacheHitRate(); rate != 0.5 {
		t.Fatalf("cache hit rate %v, want 0.5", rate)
	}
}

// TestRunBufferedConcurrentHits: concurrent buffered hits for one digest
// share the cached result bytes, and each must still get exactly those
// bytes plus one newline — no hit may write into the shared slice (run
// under -race).
func TestRunBufferedConcurrentHits(t *testing.T) {
	spec := goldenSpec(t, "mesh-9x9-minimum.json")
	want := append(offlineResult(t, spec), '\n')
	_, ts := newTestServer(t, Config{Workers: 2})
	if resp := postRun(t, ts.URL, spec, "application/json"); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run status %d", resp.StatusCode)
	} else {
		readAll(t, resp)
	}

	const hits = 48
	var wg sync.WaitGroup
	errs := make(chan error, hits)
	for i := 0; i < hits; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(spec))
			if err != nil {
				errs <- err
				return
			}
			req.Header.Set("Accept", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			got, err := io.ReadAll(resp.Body)
			switch {
			case err != nil:
				errs <- err
			case resp.Header.Get("X-Dynmond-Cache") != "hit":
				errs <- fmt.Errorf("status %d without a cache hit", resp.StatusCode)
			case !bytes.Equal(got, want):
				errs <- fmt.Errorf("hit body differs from the offline result:\n got %q\nwant %q", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRunNDJSONStream pins the default streaming mode: step events for
// every round, then one result event whose "result" field carries the exact
// offline bytes (json.RawMessage passthrough, no re-marshal).
func TestRunNDJSONStream(t *testing.T) {
	spec := goldenSpec(t, "ws-300-random.json")
	want := offlineResult(t, spec)
	var wantRes struct {
		Rounds int `json:"rounds"`
	}
	if err := json.Unmarshal(want, &wantRes); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Config{Workers: 2})
	resp := postRun(t, ts.URL, spec, "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var steps int
	var resultLine []byte
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var ev struct {
			Event  string          `json:"event"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Event {
		case "step":
			steps++
		case "result":
			resultLine = append([]byte(nil), ev.Result...)
		case "error":
			t.Fatalf("stream error event: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if resultLine == nil {
		t.Fatal("stream carried no result event")
	}
	if !bytes.Equal(resultLine, want) {
		t.Fatalf("streamed result differs from offline run:\n got %s\nwant %s", resultLine, want)
	}
	// The terminal round rides the result event, not a step event.
	if steps != wantRes.Rounds-1 {
		t.Fatalf("streamed %d step events, want %d (one per non-terminal round)", steps, wantRes.Rounds-1)
	}
}

// TestRunSSEStream pins the SSE framing: event fields name the kinds, the
// terminal frame is a result, and its data payload embeds the exact bytes.
func TestRunSSEStream(t *testing.T) {
	spec := goldenSpec(t, "ba-200-hubs.json")
	want := offlineResult(t, spec)
	_, ts := newTestServer(t, Config{Workers: 2})

	resp := postRun(t, ts.URL, spec, "text/event-stream")
	body := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "event: step\n") {
		t.Fatal("SSE stream has no step frames")
	}
	idx := strings.LastIndex(string(body), "event: result\ndata: ")
	if idx < 0 {
		t.Fatal("SSE stream has no result frame")
	}
	data := string(body[idx+len("event: result\ndata: "):])
	data = strings.TrimRight(data, "\n")
	var ev struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(data), &ev); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(ev.Result), want) {
		t.Fatal("SSE result payload differs from offline run")
	}
}

// TestRunCheckpointSubmission pins the server-side resume path: a
// checkpoint taken mid-run offline, POSTed to /v1/runs, finishes with the
// terminal Result of the uninterrupted run — bit-identical — and is never
// cached (a resumed segment is not a complete run).
func TestRunCheckpointSubmission(t *testing.T) {
	spec := goldenSpec(t, "mesh-9x9-minimum.json")
	want := offlineResult(t, spec)

	// Take a checkpoint at round 3 of the 8-round run.
	fs, err := dynmon.ParseFileSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cpJSON []byte
	for st, err := range sys.Steps(context.Background(), cons.Coloring, dynmon.WithRunSpec(fs.Run)) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Round() == 3 {
			cp, err := st.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if cpJSON, err = cp.JSON(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	srv, ts := newTestServer(t, Config{Workers: 2})
	resp := postRun(t, ts.URL, cpJSON, "application/json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint submission status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if got := readAll(t, resp); !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
		t.Fatalf("resumed result differs from uninterrupted offline run:\n got %s\nwant %s", got, want)
	}
	if n := srv.results.Len(); n != 0 {
		t.Fatalf("checkpoint submission was cached (%d entries), want none", n)
	}
}

// TestHealthzAndDrain pins the ops contract: /healthz is pure liveness and
// stays 200 through a drain (the process is alive and draining by design);
// /readyz flips to 503 so load balancers stop routing, and new submissions
// are refused with 503.
func TestHealthzAndDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %d, want 200", path, resp.StatusCode)
		}
	}

	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining %d, want 200 (liveness must not kill a draining pod)", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining %d, want 503", resp.StatusCode)
	}
	resp = postRun(t, ts.URL, goldenSpec(t, "mesh-9x9-minimum.json"), "application/json")
	if readAll(t, resp); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining %d, want 503", resp.StatusCode)
	}
}

// TestMetricsEndpoint smoke-tests the Prometheus exposition after a run.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	readAll(t, postRun(t, ts.URL, goldenSpec(t, "ba-200-hubs.json"), "application/json"))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	for _, want := range []string{
		"dynmond_runs_completed_total 1",
		"dynmond_cache_misses_total 1",
		"dynmond_steps_total",
		"dynmond_queue_depth",
		`dynmond_runs_by_kernel_total{kernel="frontier"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
