package dynmon_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/dynmon"
	"repro/internal/sim"
)

// TestGoldenResultBytesHostIndependent pins the determinism promise on
// every golden spec in specs/: a Result's JSON says what happened, never
// how it ran.  Each spec — as is and with "parallel": true at GOMAXPROCS
// 1, 2 and 4, and forced onto the sweep, the frontier, the parallel sweep
// (3 workers) and, where it qualifies, the bitplane — must marshal to the
// bytes of its GOMAXPROCS-1 as-is run.  Session.RunBatch items, including
// two-color lanes that step on the bit-sliced tier, must marshal to the
// bytes of System.Run on the same item.  No field is normalized.  Every
// Result, and each spec's run through Spec.New and Steps with its history
// recorded (dynserve's path), must also append to its marshaled bytes.
func TestGoldenResultBytesHostIndependent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("found %d golden specs, want at least 5", len(files))
	}
	ctx := context.Background()
	marshal := func(label string, res *dynmon.Result, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if a := res.AppendJSON(nil); !bytes.Equal(a, b) {
			t.Fatalf("%s: AppendJSON differs from json.Marshal\n got: %s\nwant: %s", label, a, b)
		}
		return b
	}
	sliced := 0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		fs, err := dynmon.ParseFileSpec(raw)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		sys, cons, _, err := fs.Build()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		run := func(label string, rs dynmon.RunSpec, procs int) []byte {
			t.Helper()
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			res, err := sys.RunSpecced(ctx, cons.Coloring, rs)
			return marshal(f+"/"+label, res, err)
		}
		want := run("as-is", fs.Run, 1)
		stepSys, err := fs.System.New()
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		hist := fs.Run
		hist.RecordHistory = true
		var stepped *dynmon.Result
		for st, err := range stepSys.Steps(ctx, cons.Coloring, dynmon.WithRunSpec(hist)) {
			if err != nil {
				t.Fatalf("%s/steps: %v", f, err)
			}
			if st.Done() {
				stepped = st.Result()
			}
		}
		if stepped == nil || len(stepped.History) == 0 {
			t.Fatalf("%s/steps: no terminal Result with a history", f)
		}
		marshal(f+"/steps", stepped, nil)
		check := func(label string, got []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: Result bytes differ from the GOMAXPROCS-1 run\n got: %s\nwant: %s", f, label, got, want)
			}
		}
		par := fs.Run
		par.Parallel = true
		for _, procs := range []int{1, 2, 4} {
			check("as-is", run("as-is", fs.Run, procs))
			check("parallel", run("parallel", par, procs))
		}
		for _, kernel := range []string{"sweep", "frontier", "parallel", "bitplane"} {
			rs := fs.Run
			rs.Kernel = kernel
			if kernel == "parallel" {
				rs.Workers = 3
			}
			res, err := sys.RunSpecced(ctx, cons.Coloring, rs)
			if kernel == "bitplane" && errors.Is(err, dynmon.ErrBitplaneIneligible) {
				continue
			}
			check(kernel, marshal(f+"/"+kernel, res, err))
		}

		// One batch of mixed palettes (the per-item scalar path) and one of
		// two-color colorings (the bit-sliced tier where the substrate and
		// rule qualify).
		mixed := []*dynmon.Coloring{cons.Coloring, sys.RandomColoring(1), sys.RandomColoring(2)}
		var twoColor []*dynmon.Coloring
		for seed := uint64(3); seed < 7; seed++ {
			c := sys.RandomColoring(seed)
			for v := 0; v < c.N(); v++ {
				c.Set(v, 1+c.At(v)%2)
			}
			twoColor = append(twoColor, c)
		}
		for _, batch := range [][]*dynmon.Coloring{mixed, twoColor} {
			results, err := sys.NewSession(2).RunBatch(ctx, batch, dynmon.WithRunSpec(fs.Run))
			if err != nil {
				t.Fatalf("%s: batch: %v", f, err)
			}
			for i, res := range results {
				if res.Kernel == sim.KernelBitsliced {
					sliced++
				}
				got := marshal(f+"/batch", res, nil)
				one, err := sys.Run(ctx, batch[i], dynmon.WithRunSpec(fs.Run))
				if ref := marshal(f+"/batch item", one, err); !bytes.Equal(got, ref) {
					t.Fatalf("%s: batch item %d differs from System.Run\n got: %s\nwant: %s", f, i, got, ref)
				}
			}
		}
	}
	if sliced == 0 {
		t.Fatal("no batch item stepped on the bit-sliced tier; the batch coverage is lost")
	}
}

// TestKernelRunOption drives every stepping tier through the public façade
// and requires bit-identical results plus correct tier telemetry.
func TestKernelRunOption(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(12, 12), dynmon.Colors(4))
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.RandomColoring(7)
	ctx := context.Background()

	oracle, err := sys.Run(ctx, initial, dynmon.MaxRounds(30), dynmon.Target(1), dynmon.Kernel(dynmon.KernelSweep))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.Kernel != dynmon.KernelSweep {
		t.Fatalf("oracle ran on %v, want sweep", oracle.Kernel)
	}
	for _, tier := range []dynmon.KernelTier{dynmon.KernelBitplane, dynmon.KernelFrontier, dynmon.KernelParallel, dynmon.KernelAuto} {
		res, err := sys.Run(ctx, initial, dynmon.MaxRounds(30), dynmon.Target(1), dynmon.Kernel(tier))
		if err != nil {
			t.Fatalf("%v: %v", tier, err)
		}
		if res.Rounds != oracle.Rounds || !res.Final.Equal(oracle.Final) {
			t.Fatalf("%v: diverged from the sweep oracle", tier)
		}
		if tier != dynmon.KernelAuto && res.Kernel != tier {
			t.Fatalf("forced %v but Result.Kernel = %v", tier, res.Kernel)
		}
	}
}

// TestSessionNormalizesParallelKernel: the batch is the session's unit of
// parallelism, so a per-run Kernel(KernelParallel) must degrade to the
// sweep instead of oversubscribing the shared worker pool per item.
func TestSessionNormalizesParallelKernel(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(8, 8), dynmon.Colors(4))
	if err != nil {
		t.Fatal(err)
	}
	se := sys.NewSession(2)
	initials := []*dynmon.Coloring{sys.RandomColoring(1), sys.RandomColoring(2)}
	results, err := se.RunBatch(context.Background(), initials,
		dynmon.MaxRounds(5), dynmon.Kernel(dynmon.KernelParallel))
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Kernel != dynmon.KernelSweep || res.Workers != 1 {
			t.Fatalf("batch item %d ran on %v with %d workers, want sequential sweep", i, res.Kernel, res.Workers)
		}
	}
}

// TestKernelBitplaneIneligibleSurfaces: forcing the bitplane tier on a
// five-color system must fail loudly with the sentinel error, while the
// default auto selection silently falls back.
func TestKernelBitplaneIneligibleSurfaces(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(8, 8), dynmon.Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.RandomColoring(1)
	ctx := context.Background()

	if _, err := sys.Run(ctx, initial, dynmon.Kernel(dynmon.KernelBitplane)); !errors.Is(err, dynmon.ErrBitplaneIneligible) {
		t.Fatalf("err = %v, want ErrBitplaneIneligible", err)
	}
	res, err := sys.Run(ctx, initial, dynmon.MaxRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != dynmon.KernelFrontier {
		t.Fatalf("auto fallback used %v, want frontier", res.Kernel)
	}
}
