package dynmon_test

import (
	"context"
	"encoding/json"
	"testing"

	"repro/dynmon"
	"repro/internal/sim"
)

// resultJSON flattens a Result to its wire form, the strongest equality the
// API promises: every field the wire carries.
func resultJSON(t *testing.T, res *dynmon.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// twoColorSystem builds a slice-eligible system: two colors on a torus,
// whose default smp rule has a carry-save kernel.
func twoColorSystem(t *testing.T, opts ...dynmon.Option) *dynmon.System {
	t.Helper()
	sys, err := dynmon.New(append([]dynmon.Option{dynmon.Colors(2)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// slicedCount reports how many results stepped on the bit-sliced tier, and
// fails on a nil result.
func slicedCount(t *testing.T, results []*dynmon.Result) int {
	t.Helper()
	n := 0
	for i, res := range results {
		if res == nil {
			t.Fatalf("result %d is nil", i)
		}
		if res.Kernel == sim.KernelBitsliced {
			n++
		}
	}
	return n
}

// TestSessionRunBatchSlicedTransparent pins the tentpole contract: an
// eligible ≤64-item batch takes the bit-sliced ensemble tier (every lane's
// Result.Kernel says so) and every Result is byte-identical to a
// one-at-a-time System.Run with the same options.
func TestSessionRunBatchSlicedTransparent(t *testing.T) {
	sys := twoColorSystem(t, dynmon.Mesh(24, 24))
	initials := make([]*dynmon.Coloring, 64)
	for i := range initials {
		initials[i] = sys.RandomColoring(uint64(i + 1))
	}
	opts := []dynmon.RunOption{dynmon.Target(1), dynmon.StopWhenMonochromatic(), dynmon.DetectCycles()}

	results, err := sys.NewSession(4).RunBatch(context.Background(), initials, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := slicedCount(t, results); got != len(initials) {
		t.Errorf("%d of %d lanes sliced, want all (fast path not engaged)", got, len(initials))
	}
	for i, initial := range initials {
		want, err := sys.Run(context.Background(), initial, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if results[i] == nil {
			t.Fatalf("result %d is nil", i)
		}
		if got, exp := resultJSON(t, results[i]), resultJSON(t, want); got != exp {
			t.Fatalf("result %d drifted from scalar run:\nbatch:  %s\nscalar: %s", i, got, exp)
		}
	}
}

// TestSessionRunBatchTilesLargeBatches pins the >64 shape: a 150-item batch
// splits into three sliced tiles over the worker pool and stays
// bit-identical to scalar runs at the tile seams.
func TestSessionRunBatchTilesLargeBatches(t *testing.T) {
	sys := twoColorSystem(t, dynmon.Mesh(12, 12))
	initials := make([]*dynmon.Coloring, 150)
	for i := range initials {
		initials[i] = sys.RandomColoring(uint64(i + 1))
	}

	results, err := sys.NewSession(4).RunBatch(context.Background(), initials, dynmon.MaxRounds(80))
	if err != nil {
		t.Fatal(err)
	}
	if got := slicedCount(t, results); got != len(initials) {
		t.Errorf("%d of %d lanes sliced, want all three tiles", got, len(initials))
	}
	// Spot-check the tile seams and ends; full-matrix parity is pinned by
	// the 64-lane test above and the internal/sim differential suite.
	for _, i := range []int{0, 63, 64, 127, 128, 149} {
		want, err := sys.Run(context.Background(), initials[i], dynmon.MaxRounds(80))
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := resultJSON(t, results[i]), resultJSON(t, want); got != exp {
			t.Fatalf("result %d drifted from scalar run", i)
		}
	}
}

// TestSessionRunBatchFallbackParity pins the fallback: a palette the slicer
// cannot pack (5 colors) keeps the per-run loop, with identical results and
// no lane on the sliced tier.
func TestSessionRunBatchFallbackParity(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(12, 12)) // default 5-color palette
	if err != nil {
		t.Fatal(err)
	}
	initials := make([]*dynmon.Coloring, 40)
	for i := range initials {
		initials[i] = sys.RandomColoring(uint64(i + 1))
	}

	results, err := sys.NewSession(4).RunBatch(context.Background(), initials, dynmon.Target(1), dynmon.DetectCycles())
	if err != nil {
		t.Fatal(err)
	}
	if got := slicedCount(t, results); got != 0 {
		t.Errorf("%d lanes sliced, want 0 for a 5-color ensemble", got)
	}
	for i, initial := range initials {
		want, err := sys.Run(context.Background(), initial, dynmon.Target(1), dynmon.DetectCycles())
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := resultJSON(t, results[i]), resultJSON(t, want); got != exp {
			t.Fatalf("result %d drifted from scalar run", i)
		}
	}
}

// TestSessionRunBatchMixedTiles pins per-tile eligibility: when one tile of
// a batch holds a lane the packer rejects (a third color), only that tile
// falls back while the rest stay sliced — and the output is seamless.
func TestSessionRunBatchMixedTiles(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(12, 12), dynmon.Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	initials := make([]*dynmon.Coloring, 128)
	for i := range initials {
		c := sys.RandomColoring(uint64(i + 1))
		for v, cell := range c.Cells() {
			if cell > 2 {
				c.Cells()[v] = 1
			}
		}
		initials[i] = c
	}
	// Poison one lane of the second tile with the third color.
	initials[100].Cells()[7] = 3

	results, err := sys.NewSession(4).RunBatch(context.Background(), initials, dynmon.MaxRounds(60))
	if err != nil {
		t.Fatal(err)
	}
	if got := slicedCount(t, results[:64]); got != 64 {
		t.Errorf("%d of the first tile's 64 lanes sliced, want all", got)
	}
	if got := slicedCount(t, results[64:]); got != 0 {
		t.Errorf("%d of the second tile's lanes sliced, want 0 (it fell back)", got)
	}
	for _, i := range []int{0, 63, 64, 100, 127} {
		want, err := sys.Run(context.Background(), initials[i], dynmon.MaxRounds(60))
		if err != nil {
			t.Fatal(err)
		}
		if got, exp := resultJSON(t, results[i]), resultJSON(t, want); got != exp {
			t.Fatalf("result %d drifted from scalar run", i)
		}
	}
}

// TestSessionVerifyBatchSliced pins that the verification wrapper rides the
// same fast path and its Reports match one-at-a-time VerifyColoring.
func TestSessionVerifyBatchSliced(t *testing.T) {
	sys := twoColorSystem(t, dynmon.Mesh(16, 16))
	initials := make([]*dynmon.Coloring, 48)
	for i := range initials {
		initials[i] = sys.RandomColoring(uint64(i + 1))
	}

	reports, err := sys.NewSession(4).VerifyBatch(context.Background(), initials, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, initial := range initials {
		want := sys.VerifyColoring(initial, 1)
		got := reports[i]
		if got == nil {
			t.Fatalf("report %d is nil", i)
		}
		if got.Result.Kernel != sim.KernelBitsliced {
			t.Errorf("report %d stepped on %v, want the bit-sliced tier", i, got.Result.Kernel)
		}
		if got.IsDynamo != want.IsDynamo || got.Rounds != want.Rounds ||
			got.Monotone != want.Monotone || got.SeedSize != want.SeedSize {
			t.Fatalf("report %d drifted: batch %+v vs sequential %+v", i, got, want)
		}
		if gotJSON, expJSON := resultJSON(t, got.Result), resultJSON(t, want.Result); gotJSON != expJSON {
			t.Fatalf("report %d result drifted from scalar run", i)
		}
	}
}
