package dynserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/dynmon"
)

const testBatchSpec = `{
  "system": {
    "substrate": {"topology": {"name": "toroidal-mesh", "rows": 12, "cols": 12}},
    "colors": 2,
    "rule": "smp"
  },
  "run": {"target": 1, "stop_when_monochromatic": true, "detect_cycles": true},
  "items": [
    {"config": "random", "seed": 1},
    {"config": "random", "seed": 2},
    {"config": "random", "seed": 3}
  ]
}`

func postBatch(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

type batchResponse struct {
	Results []batchItem `json:"results"`
}

func decodeBatch(t *testing.T, resp *http.Response) batchResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var br batchResponse
	if err := json.Unmarshal(readAll(t, resp), &br); err != nil {
		t.Fatal(err)
	}
	return br
}

// TestBatchEndpoint pins the /v1/batch contract: per-item Results
// byte-identical to offline single runs, per-item digests shared with the
// /v1/runs cache keyspace (a single-run submission pre-warms a batch item
// and a batch miss pre-warms a later single run), and a fully cached
// resubmission answering entirely from cache.
func TestBatchEndpoint(t *testing.T) {
	bs, err := dynmon.ParseBatchSpec([]byte(testBatchSpec))
	if err != nil {
		t.Fatal(err)
	}
	offline := make([][]byte, len(bs.Items))
	for i := range bs.Items {
		itemSpec, jerr := bs.Item(i).JSON()
		if jerr != nil {
			t.Fatal(jerr)
		}
		offline[i] = offlineResult(t, itemSpec)
	}

	srv, ts := newTestServer(t, Config{Workers: 2})

	// Pre-warm item 0 through the single-run endpoint.
	item0, err := bs.Item(0).JSON()
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, postRun(t, ts.URL, item0, "application/json"))

	br := decodeBatch(t, postBatch(t, ts.URL, []byte(testBatchSpec)))
	if len(br.Results) != 3 {
		t.Fatalf("got %d results", len(br.Results))
	}
	for i, item := range br.Results {
		wantDigest, derr := bs.ItemDigest(i)
		if derr != nil {
			t.Fatal(derr)
		}
		if item.Digest != wantDigest {
			t.Errorf("item %d digest %q, want %q", i, item.Digest, wantDigest)
		}
		if wantCached := i == 0; item.Cached != wantCached {
			t.Errorf("item %d cached=%v, want %v", i, item.Cached, wantCached)
		}
		if !bytes.Equal(item.Result, offline[i]) {
			t.Errorf("item %d result differs from offline run:\n got %s\nwant %s", i, item.Result, offline[i])
		}
	}
	// 1 single-run miss + 1 batch hit + 2 batch misses so far.
	if h, m := srv.metrics.CacheHits.Load(), srv.metrics.CacheMisses.Load(); h != 1 || m != 3 {
		t.Fatalf("after first batch: hits=%d misses=%d, want 1/3", h, m)
	}

	// A batch miss warms the cache for single-run submissions.
	item1, err := bs.Item(1).JSON()
	if err != nil {
		t.Fatal(err)
	}
	resp := postRun(t, ts.URL, item1, "application/json")
	if resp.Header.Get("X-Dynmond-Cache") != "hit" {
		t.Fatal("single-run submission of a batch-settled item missed the cache")
	}
	if got := readAll(t, resp); !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), offline[1]) {
		t.Fatal("cached single-run result differs from offline run")
	}

	// Resubmitting the whole batch answers from cache without a worker slot.
	br = decodeBatch(t, postBatch(t, ts.URL, []byte(testBatchSpec)))
	for i, item := range br.Results {
		if !item.Cached {
			t.Errorf("resubmitted item %d not served from cache", i)
		}
		if !bytes.Equal(item.Result, offline[i]) {
			t.Errorf("resubmitted item %d result drifted", i)
		}
	}
	// The server ran each distinct item exactly once across all endpoints.
	if rc := srv.metrics.RunsCompleted.Load(); rc != 3 {
		t.Fatalf("runs completed = %d, want 3", rc)
	}
}

// TestBatchEndpointErrors pins the failure modes: malformed and invalid
// specs answer 400 before admission, a batch whose items cannot build on
// its system or whose run names no kernel tier answers 422.
func TestBatchEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, bad := range []string{
		`{not json`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"items":[{"config":"random"}],"bogus":1}`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"items":[]}`,
	} {
		resp := postBatch(t, ts.URL, []byte(bad))
		if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for _, unrunnable := range []string{
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"items":[{"config":"no-such-family"}]}`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"run":{"kernel":"sharded"},"items":[{"config":"random"}]}`,
	} {
		resp := postBatch(t, ts.URL, []byte(unrunnable))
		if readAll(t, resp); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("unrunnable batch %q: status %d, want 422", unrunnable, resp.StatusCode)
		}
	}
}
