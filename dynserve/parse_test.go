package dynserve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/dynmon"
)

// TestParseBoundaryFailures pins the HTTP-boundary contract for malformed
// submissions: truncated bodies, unknown fields and oversized payloads are
// rejected with precise statuses before any simulation work happens.
func TestParseBoundaryFailures(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxRequestBytes: 4096})

	valid := string(goldenSpec(t, "mesh-9x9-minimum.json"))
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", "", http.StatusBadRequest},
		{"truncated json", valid[:len(valid)/2], http.StatusBadRequest},
		{"trailing garbage", valid + "{}", http.StatusBadRequest},
		{"unknown top-level field", `{"system":{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":5},"oops":1,"initial":{"config":"minimum"},"run":{}}`, http.StatusBadRequest},
		{"unknown nested field", `{"system":{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":5,"bogus":true},"initial":{"config":"minimum"},"run":{}}`, http.StatusBadRequest},
		{"unknown topology name", `{"system":{"substrate":{"topology":{"name":"moebius","rows":4,"cols":4}},"colors":5},"initial":{"config":"minimum"},"run":{}}`, http.StatusBadRequest},
		{"oversized body", `{"pad":"` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRun(t, ts.URL, []byte(tc.body), "application/json")
			body := readAll(t, resp)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, tc.want)
			}
			var ev struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(body, &ev); err != nil || ev.Error == "" {
				t.Fatalf("error body %q is not a JSON error object", body)
			}
		})
	}
	if n := srv.metrics.RunsStarted.Load(); n != 0 {
		t.Fatalf("malformed submissions started %d runs, want 0", n)
	}
}

// TestCheckpointSpecMismatchRejected pins the resume-integrity check: a
// checkpoint whose embedded system spec disagrees with its own saved state
// (here: a 5x5 system claimed for a 9x9 configuration) is rejected with
// 422, never simulated.
func TestCheckpointSpecMismatchRejected(t *testing.T) {
	fs, err := dynmon.ParseFileSpec(goldenSpec(t, "mesh-9x9-minimum.json"))
	if err != nil {
		t.Fatal(err)
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cp *dynmon.Checkpoint
	for st, err := range sys.Steps(context.Background(), cons.Coloring, dynmon.WithRunSpec(fs.Run)) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Round() == 2 {
			if cp, err = st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	// Forge the embedded system spec: same family, wrong dimensions.
	cp.System.Substrate.Topology.Rows = 5
	cp.System.Substrate.Topology.Cols = 5
	body, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1})
	resp := postRun(t, ts.URL, body, "application/json")
	respBody := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("mismatched checkpoint status %d (%s), want 422", resp.StatusCode, respBody)
	}
	if n := srv.metrics.RunsCompleted.Load(); n != 0 {
		t.Fatalf("mismatched checkpoint completed %d runs, want 0", n)
	}
}

// TestCheckpointWithoutSystemRejected pins that a bare checkpoint (no
// embedded system spec) cannot be submitted — the server has no system to
// resume it on.
func TestCheckpointWithoutSystemRejected(t *testing.T) {
	fs, err := dynmon.ParseFileSpec(goldenSpec(t, "mesh-9x9-minimum.json"))
	if err != nil {
		t.Fatal(err)
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cp *dynmon.Checkpoint
	for st, serr := range sys.Steps(context.Background(), cons.Coloring, dynmon.WithRunSpec(fs.Run)) {
		if serr != nil {
			t.Fatal(serr)
		}
		if st.Round() == 2 {
			if cp, serr = st.Checkpoint(); serr != nil {
				t.Fatal(serr)
			}
			break
		}
	}
	cp.System = nil
	body, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postRun(t, ts.URL, body, "application/json")
	respBody := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bare checkpoint status %d (%s), want 422", resp.StatusCode, respBody)
	}
}

// TestRemovedKernelRejected pins that a run naming the deleted sharded tier
// gets the engine's unknown-kernel error as a 422, not a silent fallback to
// another tier.
func TestRemovedKernelRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	body := `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":5},"initial":{"config":"minimum"},"run":{"kernel":"sharded","workers":2}}`
	resp := postRun(t, ts.URL, []byte(body), "application/json")
	respBody := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("kernel sharded status %d (%s), want 422", resp.StatusCode, respBody)
	}
	if !strings.Contains(string(respBody), `unknown kernel \"sharded\"`) {
		t.Fatalf("error body %s does not name the unknown kernel", respBody)
	}
	if n := srv.metrics.RunsCompleted.Load(); n != 0 {
		t.Fatalf("kernel sharded completed %d runs, want 0", n)
	}
}

// TestOversizedPaletteRejected pins the palette cap at the HTTP boundary:
// a billion-color spec on an 8x8 mesh once killed the process by running
// out of memory; it gets a 422 naming the limit and the server stays ready.
func TestOversizedPaletteRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	body := `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":8,"cols":8}},"colors":1000000000,"rule":"smp"},"initial":{"config":"random","seed":1}}`
	resp := postRun(t, ts.URL, []byte(body), "application/json")
	respBody := readAll(t, resp)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized palette status %d (%s), want 422", resp.StatusCode, respBody)
	}
	if !strings.Contains(string(respBody), "limit of 255 colors") {
		t.Fatalf("error body %s does not name the palette limit", respBody)
	}
	if n := srv.metrics.RunsStarted.Load(); n != 0 {
		t.Fatalf("oversized palette started %d runs, want 0", n)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, ready); ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz after oversized palette %d, want 200", ready.StatusCode)
	}
}

// TestAvailabilityOutOfRangeRejected pins the availability parameter checks
// at the HTTP boundary: each of these run sections was once served with 200
// (a bernoulli p of -1 ran with no link ever up); each now gets a 422 naming
// the model, and the server stays ready.
func TestAvailabilityOutOfRangeRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct{ section, want string }{
		{`{"time_varying":{"model":"bernoulli","p":-1}}`, "bernoulli availability p -1"},
		{`{"time_varying":{"model":"node-faults","p":2,"links":{"model":"bernoulli","p":7}}}`, "node-faults availability p 2"},
		{`{"time_varying":{"model":"periodic","period":-4,"off":-1}}`, "periodic availability period -4"},
	} {
		body := `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":8,"cols":8}},"colors":3,"rule":"smp"},"initial":{"config":"random","seed":1},"run":` + c.section + `}`
		resp := postRun(t, ts.URL, []byte(body), "application/json")
		respBody := readAll(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d (%s), want 422", c.section, resp.StatusCode, respBody)
		}
		if !strings.Contains(string(respBody), c.want) {
			t.Fatalf("%s: error body %s does not name %q", c.section, respBody, c.want)
		}
	}
	if n := srv.metrics.RunsCompleted.Load(); n != 0 {
		t.Fatalf("out-of-range availability completed %d runs, want 0", n)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, ready); ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz after out-of-range availability %d, want 200", ready.StatusCode)
	}
}

// TestOversizedCellColorRejected pins the cell-color cap at the HTTP
// boundary: a 4x4 two-color spec whose explicit cells carry color 10^9, and
// a checkpoint whose config does, once killed the process by running out of
// memory.  Every endpoint that parses cells answers 422 naming the limit,
// and the server stays ready.
func TestOversizedCellColorRejected(t *testing.T) {
	const system = `"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":4,"cols":4}},"colors":2,"rule":"smp"}`
	const cells = `{"cells":{"rows":4,"cols":4,"cells":[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1000000000]}}`
	spec := `{` + system + `,"initial":` + cells + `,"run":{}}`
	sys, err := dynmon.New(dynmon.Mesh(4, 4), dynmon.Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	var cp *dynmon.Checkpoint
	for st, serr := range sys.Steps(context.Background(), sys.RandomColoring(3), dynmon.MaxRounds(8)) {
		if serr != nil {
			t.Fatal(serr)
		}
		if cp, serr = st.Checkpoint(); serr != nil {
			t.Fatal(serr)
		}
		break
	}
	cp.Config.Set(5, 1000000000)
	checkpoint, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Config{Workers: 1})
	for _, c := range []struct {
		path string
		body []byte
	}{
		{"/v1/runs", []byte(spec)},
		{"/v1/runs", checkpoint},
		{"/v1/jobs", []byte(spec)},
		{"/v1/batch", []byte(`{` + system + `,"run":{},"items":[` + cells + `]}`)},
		{"/v1/ensembles", []byte(`{` + system + `,"initial":` + cells + `,"run":{},"replicas":2}`)},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(string(c.body)))
		if err != nil {
			t.Fatal(err)
		}
		respBody := readAll(t, resp)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("%s with an oversized cell color: status %d (%s), want 422", c.path, resp.StatusCode, respBody)
		}
		if !strings.Contains(string(respBody), "cell color exceeds the limit of 255") {
			t.Fatalf("%s: error body %s does not name the cell-color limit", c.path, respBody)
		}
	}
	if n := srv.metrics.RunsStarted.Load(); n != 0 {
		t.Fatalf("oversized cell colors started %d runs, want 0", n)
	}
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, ready); ready.StatusCode != http.StatusOK {
		t.Fatalf("readyz after oversized cell colors %d, want 200", ready.StatusCode)
	}
}

// TestJobSubmissionRejectsCheckpoints pins that the jobs endpoint only
// takes spec files.
func TestJobSubmissionRejectsCheckpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := []byte(`{"round":3,"config":{"rows":2,"cols":2,"cells":[0,0,0,0]},"changes_per_round":[1,1,1]}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("checkpoint job submission status %d, want 400", resp.StatusCode)
	}
}
