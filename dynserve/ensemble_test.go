package dynserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/dynmon"
)

const testEnsembleSpec = `{
  "system": {
    "substrate": {"topology": {"name": "toroidal-mesh", "rows": 10, "cols": 10}},
    "colors": 2,
    "rule": "smp"
  },
  "initial": {"config": "bernoulli"},
  "run": {"max_rounds": 40, "target": 1, "noise": {"eps": 0.02}},
  "replicas": 8,
  "seed": 7,
  "sweep": {"axis": "density", "values": [0.3, 0.7]}
}`

func postEnsemble(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/ensembles", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

type ensembleResponse struct {
	Digest string          `json:"digest"`
	Cached bool            `json:"cached"`
	Report json.RawMessage `json:"report"`
}

func decodeEnsemble(t *testing.T, resp *http.Response) ensembleResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ensemble status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var er ensembleResponse
	if err := json.Unmarshal(readAll(t, resp), &er); err != nil {
		t.Fatal(err)
	}
	return er
}

// TestEnsembleEndpoint pins the /v1/ensembles contract: the served report
// is byte-identical to an offline dynmon.Ensemble run of the same spec, is
// keyed by the spec digest, and a resubmission answers the same bytes from
// cache without occupying a worker slot.
func TestEnsembleEndpoint(t *testing.T) {
	es, err := dynmon.ParseEnsembleSpec([]byte(testEnsembleSpec))
	if err != nil {
		t.Fatal(err)
	}
	ens, err := dynmon.NewEnsemble(es, 2)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := ens.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	offlineJSON, err := json.Marshal(offline)
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 2})
	cold := decodeEnsemble(t, postEnsemble(t, ts.URL, []byte(testEnsembleSpec)))
	if cold.Cached {
		t.Fatal("cold submission claims a cache hit")
	}
	if cold.Digest != ens.Digest() {
		t.Fatalf("served digest %q, offline digest %q", cold.Digest, ens.Digest())
	}
	if !bytes.Equal(cold.Report, offlineJSON) {
		t.Fatalf("served report differs from offline run:\n got %s\nwant %s", cold.Report, offlineJSON)
	}

	warm := decodeEnsemble(t, postEnsemble(t, ts.URL, []byte(testEnsembleSpec)))
	if !warm.Cached {
		t.Fatal("resubmission missed the cache")
	}
	if !bytes.Equal(warm.Report, cold.Report) {
		t.Fatal("cached report drifted from the cold one")
	}
	if h, m := srv.metrics.CacheHits.Load(), srv.metrics.CacheMisses.Load(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", h, m)
	}
	if rc := srv.metrics.RunsCompleted.Load(); rc != 1 {
		t.Fatalf("runs completed = %d, want 1 (the ensemble is the admission unit)", rc)
	}
}

// TestEnsembleEndpointErrors pins the failure modes: malformed or invalid
// specs answer 400 before admission; a spec that validates but cannot
// build, or one of more runs than an ensemble may hold, answers 422.
func TestEnsembleEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, bad := range []string{
		`{not json`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"initial":{"config":"bernoulli"},"replicas":0}`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"initial":{"config":"bernoulli"},"replicas":2,"sweep":{"axis":"voltage","values":[1]}}`,
		`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"initial":{"config":"bernoulli","density":2},"replicas":2}`,
		testEnsembleSpec + `trailing`,
	} {
		resp := postEnsemble(t, ts.URL, []byte(bad))
		if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %.60q: status %d, want 400", bad, resp.StatusCode)
		}
	}
	for label, spec := range map[string]string{
		"unbuildable": `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":2},"initial":{"config":"no-such-family"},"replicas":2}`,
		"too large":   `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":8,"cols":8}},"colors":2},"initial":{"config":"bernoulli"},"replicas":2000000000}`,
	} {
		resp := postEnsemble(t, ts.URL, []byte(spec))
		if readAll(t, resp); resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s ensemble: status %d, want 422", label, resp.StatusCode)
		}
	}
}
