package dynmon_test

import (
	"context"
	"errors"
	"testing"

	"repro/dynmon"
)

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
