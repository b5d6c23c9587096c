package dynmon

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// TestSpecRoundTripEveryTopologyRule pins the acceptance property of the
// spec layer on torus substrates: for every registered topology name
// (aliases included) × every registered rule, ParseSpec(System.Spec.JSON())
// rebuilds an equivalent system, and the rebuilt system's spec equals the
// first (canonicalization is a fixed point).
func TestSpecRoundTripEveryTopologyRule(t *testing.T) {
	for _, topoName := range TopologyNames() {
		for _, ruleName := range RuleNames() {
			sp := &Spec{
				Substrate: SubstrateSpec{Topology: &TopologySpec{Name: topoName, Rows: 6, Cols: 7}},
				Colors:    4,
				Rule:      ruleName,
			}
			sys, err := sp.New()
			if err != nil {
				t.Fatalf("%s/%s: %v", topoName, ruleName, err)
			}
			emitted, err := sys.Spec()
			if err != nil {
				t.Fatalf("%s/%s: Spec: %v", topoName, ruleName, err)
			}
			wire, err := emitted.JSON()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseSpec(wire)
			if err != nil {
				t.Fatalf("%s/%s: ParseSpec of own output: %v", topoName, ruleName, err)
			}
			rebuilt, err := parsed.New()
			if err != nil {
				t.Fatalf("%s/%s: rebuilding: %v", topoName, ruleName, err)
			}
			if rebuilt.String() != sys.String() {
				t.Fatalf("%s/%s: round-trip changed the system: %q vs %q", topoName, ruleName, rebuilt.String(), sys.String())
			}
			again, err := rebuilt.Spec()
			if err != nil {
				t.Fatal(err)
			}
			if !specEqual(emitted, again) {
				t.Fatalf("%s/%s: canonical spec is not a fixed point", topoName, ruleName)
			}
		}
	}
}

// TestSpecRoundTripEveryGeneratorRule extends the round-trip pin to every
// registered graph generator × rule: the regenerated substrate must be the
// same graph, edge for edge.
func TestSpecRoundTripEveryGeneratorRule(t *testing.T) {
	for _, genName := range GeneratorNames() {
		for _, ruleName := range RuleNames() {
			sp := &Spec{
				Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: genName, N: 40, Seed: 11}},
				Colors:    3,
				Rule:      ruleName,
			}
			sys, err := sp.New()
			if err != nil {
				t.Fatalf("%s/%s: %v", genName, ruleName, err)
			}
			emitted, err := sys.Spec()
			if err != nil {
				t.Fatalf("%s/%s: Spec: %v", genName, ruleName, err)
			}
			wire, err := emitted.JSON()
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := ParseSpec(wire)
			if err != nil {
				t.Fatalf("%s/%s: ParseSpec of own output: %v", genName, ruleName, err)
			}
			rebuilt, err := parsed.New()
			if err != nil {
				t.Fatalf("%s/%s: rebuilding: %v", genName, ruleName, err)
			}
			a, b := sys.Graph(), rebuilt.Graph()
			if a == nil || b == nil {
				t.Fatalf("%s/%s: generator spec built a non-graph system", genName, ruleName)
			}
			if !specEqual(edgeSpecOfTest(a), edgeSpecOfTest(b)) {
				t.Fatalf("%s/%s: regenerated graph differs", genName, ruleName)
			}
			if rebuilt.Rule().Name() != sys.Rule().Name() {
				t.Fatalf("%s/%s: rule changed to %s", genName, ruleName, rebuilt.Rule().Name())
			}
		}
	}
}

// edgeSpecOfTest wraps a graph's edge list as a Spec for easy comparison.
func edgeSpecOfTest(g *GeneralGraph) *Spec {
	return &Spec{Substrate: SubstrateSpec{Edges: edgeListOf(g)}, Colors: 2}
}

// TestSpecCanonicalizesAliases pins that aliases resolve to canonical names
// in emitted specs ("mesh" → "toroidal-mesh", "ba" → "barabasi-albert"),
// while ParseSpec keeps accepting the aliases.
func TestSpecCanonicalizesAliases(t *testing.T) {
	sys, err := New(WithTopology("mesh", 5, 5), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Substrate.Topology.Name != "toroidal-mesh" {
		t.Fatalf("topology alias not canonicalized: %q", sp.Substrate.Topology.Name)
	}
	if sp.Rule != "smp" {
		t.Fatalf("default rule not recorded: %q", sp.Rule)
	}

	gsys, err := New(WithGenerator("ba", 30, map[string]float64{"m": 2}, 5), Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	gsp, err := gsys.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if gsp.Substrate.Generator.Name != "barabasi-albert" {
		t.Fatalf("generator alias not canonicalized: %q", gsp.Substrate.Generator.Name)
	}
	if gsp.Rule != "generalized-smp" {
		t.Fatalf("graph default rule not recorded: %q", gsp.Rule)
	}
}

// TestSpecFromInstances covers the instance-built systems: hand-built
// graphs serialize as edge lists; registry-identical instances serialize by
// name; parameterized instances honestly refuse.
func TestSpecFromInstances(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 0)
	sys, err := New(Graph(g), Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Substrate.Edges == nil || sp.Substrate.Edges.N != 5 || len(sp.Substrate.Edges.Edges) != 5 {
		t.Fatalf("hand-built graph spec = %+v", sp.Substrate.Edges)
	}
	rebuilt, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	if !specEqual(edgeSpecOfTest(sys.Graph()), edgeSpecOfTest(rebuilt.Graph())) {
		t.Fatal("edge-list round trip changed the graph")
	}

	// A rule instance identical to its registry entry is nameable.
	rule, err := RuleByName("smp")
	if err != nil {
		t.Fatal(err)
	}
	named, err := New(Mesh(4, 4), Colors(3), WithRuleInstance(rule))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := named.Spec(); err != nil {
		t.Fatalf("registry-identical rule instance should be spec-serializable: %v", err)
	}

	// A parameterized instance differing from the registry entry refuses.
	custom, err := New(Mesh(4, 4), Colors(3), WithRuleInstance(rules.Threshold{Target: 2, Theta: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := custom.Spec(); err == nil {
		t.Fatal("non-default rule parameters silently serialized by name")
	}
}

// TestParseSpecRejectsMalformed pins strict parsing: every malformed
// document errors cleanly (no panics, no silent defaults).
func TestParseSpecRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":          `{"substrate"`,
		"unknown field":     `{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":3,"frobnicate":1}`,
		"no substrate form": `{"substrate":{},"colors":3}`,
		"two substrate forms": `{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4},
			"generator":{"name":"ba","n":10}},"colors":3}`,
		"tiny torus":        `{"substrate":{"topology":{"name":"mesh","rows":1,"cols":4}},"colors":3}`,
		"empty name":        `{"substrate":{"topology":{"name":"","rows":4,"cols":4}},"colors":3}`,
		"zero colors":       `{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":0}`,
		"edge out of range": `{"substrate":{"edges":{"n":3,"edges":[[0,7]]}},"colors":2}`,
		"self loop":         `{"substrate":{"edges":{"n":3,"edges":[[1,1]]}},"colors":2}`,
		"trailing garbage":  `{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":3}{"x":1}`,
	}
	for label, doc := range cases {
		if _, err := ParseSpec([]byte(doc)); err == nil {
			t.Errorf("%s: ParseSpec accepted %q", label, doc)
		}
	}
	// Unknown names parse (the registry is open) but fail to build.
	sp, err := ParseSpec([]byte(`{"substrate":{"topology":{"name":"moebius","rows":4,"cols":4}},"colors":3}`))
	if err != nil {
		t.Fatalf("unknown topology name should parse: %v", err)
	}
	if _, err := sp.New(); err == nil {
		t.Error("unknown topology name built a system")
	}
	sp, err = ParseSpec([]byte(`{"substrate":{"generator":{"name":"ba","n":10,"params":{"zap":3}}},"colors":2}`))
	if err != nil {
		t.Fatalf("unknown generator param should parse: %v", err)
	}
	if _, err := sp.New(); err == nil || !strings.Contains(err.Error(), "zap") {
		t.Errorf("unknown generator parameter not rejected by name: %v", err)
	}
}

// FuzzParseSpec fuzzes the strict parser: it must never panic, and anything
// it accepts must validate and re-marshal to a parseable document.
func FuzzParseSpec(f *testing.F) {
	seeds := []string{
		`{"substrate":{"topology":{"name":"toroidal-mesh","rows":9,"cols":9}},"colors":5,"rule":"smp"}`,
		`{"substrate":{"generator":{"name":"barabasi-albert","n":50,"params":{"m":2},"seed":7}},"colors":2}`,
		`{"substrate":{"generator":{"name":"watts-strogatz","n":40,"params":{"k":4,"beta":0.1}}},"colors":3}`,
		`{"substrate":{"edges":{"n":3,"edges":[[0,1],[1,2]]}},"colors":2,"rule":"generalized-smp"}`,
		`{"substrate":{"topology":{"name":"torus-cordalis","rows":5,"cols":5}},"colors":6}`,
		`{"substrate":{},"colors":1}`,
		`{"substrate":{"edges":{"n":-2,"edges":[[0,1]]}},"colors":2}`,
		`[]`,
		`{"substrate":{"topology":{"name":"mesh","rows":1e9,"cols":1e9}},"colors":2}`,
		``,
		`{}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		if verr := sp.Validate(); verr != nil {
			t.Fatalf("ParseSpec accepted an invalid spec: %v", verr)
		}
		wire, err := sp.JSON()
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		if _, err := ParseSpec(wire); err != nil {
			t.Fatalf("accepted spec does not re-parse: %v", err)
		}
	})
}

// TestConfigReducesToSpec pins the adapter property: an instance-free
// Config and its Spec build indistinguishable systems, and the option front
// end records the spec it denotes.
func TestConfigReducesToSpec(t *testing.T) {
	sys, err := New(Mesh(9, 9), Colors(5), WithRule("smp"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.Spec()
	if err != nil {
		t.Fatalf("option-built system has no spec: %v", err)
	}
	direct, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	if direct.String() != sys.String() {
		t.Fatalf("spec path differs from option path: %q vs %q", direct.String(), sys.String())
	}
}

// TestBuildInitialMatchesLegacyConfigs pins the torus construction families
// reachable through InitialSpec against their direct constructors.
func TestBuildInitialMatchesLegacyConfigs(t *testing.T) {
	sys, err := New(Mesh(9, 9), Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.MinimumDynamo(1)
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := sys.BuildInitial(&InitialSpec{Config: "minimum"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !viaSpec.Coloring.Equal(direct.Coloring) {
		t.Fatal("InitialSpec minimum differs from MinimumDynamo")
	}
	random1, err := sys.BuildInitial(&InitialSpec{Config: "random", Seed: 42}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !random1.Coloring.Equal(sys.RandomColoring(42)) {
		t.Fatal("InitialSpec random not deterministic in the seed")
	}
	explicit, err := sys.BuildInitial(&InitialSpec{Cells: direct.Coloring}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !explicit.Coloring.Equal(direct.Coloring) {
		t.Fatal("explicit cells altered")
	}
	if _, err := sys.BuildInitial(&InitialSpec{Config: "nonesuch"}, 1); err == nil {
		t.Fatal("unknown config accepted")
	}
}

// TestFileSpecAcceptsBareSystemSpec pins the tolerant file parser: a bare
// Spec document wraps into a FileSpec.
func TestFileSpecAcceptsBareSystemSpec(t *testing.T) {
	fs, err := ParseFileSpec([]byte(`{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if fs.System.Substrate.Topology == nil || fs.Initial != nil {
		t.Fatalf("bare spec wrapped wrong: %+v", fs)
	}
	if _, err := ParseFileSpec([]byte(`{"system":{"substrate":{"topology":{"name":"mesh","rows":4,"cols":4}},"colors":3},"run":{"target":1},"bogus":true}`)); err == nil {
		t.Fatal("unknown file-spec field accepted")
	}
}

// TestReportResultJSONStable pins the wire contract of Report and Result:
// exact field names, colorings as {rows, cols, cells}, and no trace of how
// the run executed — Workers, Kernel and Downshift are set below but never
// serialized.
// A change that breaks this test breaks every consumer of the JSON API.
func TestReportResultJSONStable(t *testing.T) {
	final := color.NewColoring(grid.MustDims(2, 2), 2)
	res := &Result{
		Rounds:          3,
		Workers:         2,
		Kernel:          KernelBitplane,
		Downshift:       2,
		FixedPoint:      true,
		Monochromatic:   true,
		FinalColor:      2,
		MonotoneTarget:  true,
		FirstReached:    []int{0, 1, 1, 2},
		ChangesPerRound: []int{2, 1, 0},
		Final:           final,
	}
	rep := &Report{
		Construction:    "unit",
		SeedSize:        2,
		LowerBound:      2,
		Rounds:          3,
		PredictedRounds: 4,
		IsDynamo:        true,
		Monotone:        true,
		ConditionsOK:    true,
		Result:          res,
	}
	got, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"construction":"unit","seed_size":2,"lower_bound":2,"rounds":3,"predicted_rounds":4,` +
		`"is_dynamo":true,"monotone":true,"conditions_ok":true,"result":{"rounds":3,` +
		`"fixed_point":true,"cycle":false,"monochromatic":true,"final_color":2,` +
		`"monotone_target":true,"first_reached":[0,1,1,2],"changes_per_round":[2,1,0],` +
		`"final":{"rows":2,"cols":2,"cells":[2,2,2,2]}}}`
	if string(got) != want {
		t.Fatalf("report wire format drifted:\n got %s\nwant %s", got, want)
	}

	var back Report
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if back.Result == nil || back.Result.Rounds != 3 || !back.Result.Final.Equal(final) {
		t.Fatalf("report did not round-trip: %+v", back.Result)
	}
}

// TestFileSpecRejectsOverflowingLattice: a spec whose lattice overflows the
// vertex count must fail to build with grid.ErrTooLarge, never panic (the
// 2^32 x 2^32 mesh once wrapped N around to 0 and crashed the first step).
// A side that does not fit the platform's int (2^32 at 32 bits) is
// rejected earlier, by the parser.
func TestFileSpecRejectsOverflowingLattice(t *testing.T) {
	for _, size := range []string{"4294967296", "3037000500", "65536", "46341"} {
		body := `{"system": {"substrate": {"topology": {"name": "toroidal-mesh", "rows": ` + size + `, "cols": ` + size + `}},
			"colors": 2, "rule": "smp"}, "initial": {"config": "random", "seed": 1}, "run": {"max_rounds": 4}}`
		fs, err := ParseFileSpec([]byte(body))
		if _, rangeErr := strconv.ParseInt(size, 10, strconv.IntSize); rangeErr != nil {
			if err == nil {
				t.Fatalf("%s: a side beyond %d-bit int parsed", size, strconv.IntSize)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: parse: %v", size, err)
		}
		if _, _, _, err := fs.Build(); !errors.Is(err, grid.ErrTooLarge) {
			t.Fatalf("%sx%s: Build err = %v, want grid.ErrTooLarge", size, size, err)
		}
	}
}

// TestFileSpecRejectsOversizedPalette: a billion-color palette on an 8x8
// mesh once ran out of memory growing the frontier's color histogram; it
// must fail to build with color.ErrPaletteTooLarge.
func TestFileSpecRejectsOversizedPalette(t *testing.T) {
	body := `{"system": {"substrate": {"topology": {"name": "toroidal-mesh", "rows": 8, "cols": 8}},
		"colors": 1000000000, "rule": "smp"}, "initial": {"config": "random", "seed": 1}}`
	fs, err := ParseFileSpec([]byte(body))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, _, _, err := fs.Build(); !errors.Is(err, color.ErrPaletteTooLarge) {
		t.Fatalf("Build err = %v, want color.ErrPaletteTooLarge", err)
	}
}

// TestFileSpecRejectsOversizedCellColor: explicit initial cells are bounded
// by the color cap, not by the palette.  A 4x4, two-color spec whose cells
// carry color 10^9 once ran out of memory growing the frontier's color
// histogram; it must fail with color.ErrCellColorTooLarge.
func TestFileSpecRejectsOversizedCellColor(t *testing.T) {
	body := `{"system": {"substrate": {"topology": {"name": "toroidal-mesh", "rows": 4, "cols": 4}},
		"colors": 2, "rule": "smp"}, "initial": {"cells": {"rows": 4, "cols": 4,
		"cells": [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1000000000]}}}`
	fs, err := ParseFileSpec([]byte(body))
	if err == nil {
		_, _, _, err = fs.Build()
	}
	if !errors.Is(err, color.ErrCellColorTooLarge) {
		t.Fatalf("err = %v, want color.ErrCellColorTooLarge", err)
	}
}

// firstCheckpoint returns the checkpoint after round 1 of a random 4x4
// mesh run.
func firstCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	sys, err := New(Mesh(4, 4), Colors(2))
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	run := sys.Steps(context.Background(), sys.RandomColoring(3), MaxRounds(8))
	for st, err := range run {
		if err != nil {
			t.Fatal(err)
		}
		if cp, err = st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		break
	}
	return cp
}

// TestParseCheckpointRejectsOversizedCellColor: a checkpoint whose config
// carries a cell color beyond the cap fails to parse with
// color.ErrCellColorTooLarge instead of resuming into an out-of-memory.
func TestParseCheckpointRejectsOversizedCellColor(t *testing.T) {
	cp := firstCheckpoint(t)
	cp.Config.Set(5, 1000000000)
	body, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCheckpoint(body); !errors.Is(err, color.ErrCellColorTooLarge) {
		t.Fatalf("ParseCheckpoint err = %v, want color.ErrCellColorTooLarge", err)
	}
}

// TestParseCheckpointRejectsOverflowingDims: a checkpoint config whose
// rows·cols wraps to its cell count in 64-bit arithmetic fails to parse
// instead of decoding with dimensions no lattice has.
func TestParseCheckpointRejectsOverflowingDims(t *testing.T) {
	body, err := json.Marshal(firstCheckpoint(t))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	doc["config"] = json.RawMessage(`{"rows":4611686018427387905,"cols":4,"cells":[1,1,1,1]}`)
	delete(doc, "prev")
	if body, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if cp, err := ParseCheckpoint(body); err == nil {
		t.Fatalf("ParseCheckpoint accepted a %v config", cp.Config.Dims())
	}
}

// TestParseCheckpointRejectsRoundZeroPrev: no run knows a previous
// configuration before round 1, so a round-0 checkpoint that carries one is
// forged.  On an 8x8 mesh with two colors (random seed 5, target 1, stop on
// monochromatic, detect cycles) such a checkpoint, whose prev is the run's
// round-1 configuration, would resume to the fresh run's six rounds under
// the frontier but to a one-round cycle under the sweep, which seeds its
// period-2 trace from prev.  It must fail to parse and fail to resume.
func TestParseCheckpointRejectsRoundZeroPrev(t *testing.T) {
	fs, err := ParseFileSpec([]byte(`{"system": {"substrate": {"topology": {"name": "toroidal-mesh", "rows": 8, "cols": 8}},
		"colors": 2, "rule": "smp"}, "initial": {"config": "random", "seed": 5},
		"run": {"target": 1, "stop_when_monochromatic": true, "detect_cycles": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	for st, err := range sys.Steps(context.Background(), cons.Coloring, WithRunSpec(fs.Run)) {
		if err != nil {
			t.Fatal(err)
		}
		if cp, err = st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		break
	}
	forged := *cp
	forged.Round, forged.Config, forged.Prev = 0, cp.Prev, cp.Config
	forged.ChangesPerRound, forged.FirstReached = []int{}, nil
	body, err := forged.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseCheckpoint(body); err == nil {
		t.Fatal("ParseCheckpoint accepted a round-0 checkpoint with a prev")
	}
	for _, k := range []KernelTier{KernelAuto, KernelFrontier, KernelSweep, KernelParallel} {
		if res, err := sys.Resume(context.Background(), &forged, Kernel(k)); err == nil {
			t.Fatalf("%v: resumed a round-0 checkpoint with a prev to %d rounds", k, res.Rounds)
		}
	}
}
