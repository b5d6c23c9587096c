package dynmon_test

import (
	"context"
	"testing"

	"repro/dynmon"
)

// TestSessionBufferReuseParity runs the same batch twice through one
// session, so the second pass steps on the engine's warm pooled buffers,
// and once through the session of a newly built system, and requires
// bit-identical results from both and from one-at-a-time full-sweep runs.
func TestSessionBufferReuseParity(t *testing.T) {
	newSystem := func() *dynmon.System {
		sys, err := dynmon.New(dynmon.Mesh(12, 12), dynmon.Colors(5))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := newSystem()
	initials := make([]*dynmon.Coloring, 8)
	for i := range initials {
		initials[i] = sys.RandomColoring(uint64(100 + i))
	}

	ctx := context.Background()
	opts := []dynmon.RunOption{dynmon.MaxRounds(60), dynmon.DetectCycles()}
	session := sys.NewSession(3)
	if _, err := session.RunBatch(ctx, initials, opts...); err != nil {
		t.Fatal(err)
	}
	warm, err := session.RunBatch(ctx, initials, opts...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := newSystem().NewSession(3).RunBatch(ctx, initials, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := range initials {
		oracle, err := sys.Run(ctx, initials[i], append(opts, dynmon.Kernel(dynmon.KernelSweep))...)
		if err != nil {
			t.Fatal(err)
		}
		for label, res := range map[string]*dynmon.Result{"warm": warm[i], "new-engine": cold[i]} {
			if res.Rounds != oracle.Rounds || !res.Final.Equal(oracle.Final) || res.Cycle != oracle.Cycle {
				t.Fatalf("batch item %d (%s session) diverged from the full-sweep oracle", i, label)
			}
		}
	}
}

// TestFullSweepOptionParity pins the public oracle knob,
// Kernel(KernelSweep): frontier (default) and full-sweep runs of the same
// system agree.
func TestFullSweepOptionParity(t *testing.T) {
	sys, err := dynmon.New(dynmon.Serpentinus(8, 10), dynmon.Colors(4), dynmon.WithRule("simple-majority-pb"))
	if err != nil {
		t.Fatal(err)
	}
	initial := sys.RandomColoring(7)
	ctx := context.Background()
	front, err := sys.Run(ctx, initial, dynmon.MaxRounds(50), dynmon.Target(2))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sys.Run(ctx, initial, dynmon.MaxRounds(50), dynmon.Target(2), dynmon.Kernel(dynmon.KernelSweep))
	if err != nil {
		t.Fatal(err)
	}
	if front.Rounds != sweep.Rounds || !front.Final.Equal(sweep.Final) || front.MonotoneTarget != sweep.MonotoneTarget {
		t.Fatal("full-sweep and frontier runs diverged")
	}
}
