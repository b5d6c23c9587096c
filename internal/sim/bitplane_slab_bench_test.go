package sim

import (
	"fmt"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// BenchmarkBitplaneSlabWords is the cache-blocking experiment behind the
// bitplaneSlabWords constant: one bit-sliced SMP round on the two-color
// torus, stepped in fused shift+kernel blocks of varying size, from
// L1-sized slabs up to full planes.  Two regimes matter:
//
//   - 256×256 (1 KB planes): the whole working set fits L2 whatever the
//     block size, so all variants should be within noise of each other —
//     blocking must not cost anything where it cannot help.
//   - 1024×1024 (128 KB planes, ~1.5 MB of plane streams per round): full
//     plane passes stream every Nbr word to memory and back, riding the
//     bandwidth ceiling; L2-sized slabs keep the shifted words resident
//     between producer and consumer.
//
// The README performance note records the measured ceiling; rerun this
// benchmark before changing bitplaneSlabWords.
func BenchmarkBitplaneSlabWords(b *testing.B) {
	for _, size := range []int{256, 1024} {
		topo := grid.MustNew(grid.KindToroidalMesh, size, size)
		eng := NewEngine(topo, rules.SMP{})
		src := rng.New(1)
		initial := color.RandomColoring(topo.Dims(), color.MustPalette(2), func() int { return src.Intn(2) })
		bp, err := eng.NewBitplane(initial)
		if err != nil {
			b.Fatal(err)
		}
		seen := map[int]bool{}
		for _, slab := range []int{512, 1024, 2048, 4096, 8192, bp.words} {
			if slab > bp.words {
				slab = bp.words
			}
			if seen[slab] {
				continue
			}
			seen[slab] = true
			name := fmt.Sprintf("%dx%d-slab%d", size, size, slab)
			if slab == bp.words {
				name = fmt.Sprintf("%dx%d-fullplane", size, size)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(topo.Dims().N()))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bp.stepSlabs(0, bp.words, slab)
					bp.finishStep()
				}
			})
		}
	}
}

// BenchmarkBitplaneNoisyStep measures one ε-faulty bit-sliced round on the
// two-color 128×128 torus of the ensemble-noisy benchmark workload, against
// the same round without noise and on the scalar stochastic sweep, and
// reports the cost per vertex.  The fault pass hashes every vertex every
// round (rules.FaultRound), so it, not the kernel, sets the floor.
func BenchmarkBitplaneNoisyStep(b *testing.B) {
	topo := grid.MustNew(grid.KindToroidalMesh, 128, 128)
	eng := NewEngine(topo, rules.SMP{})
	src := rng.New(1)
	initial := color.RandomColoring(topo.Dims(), color.MustPalette(2), func() int { return src.Intn(2) })
	noise := &Noise{Eps: 0.01, Colors: 2, Seed: 3}
	n := topo.Dims().N()
	perVertex := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
	}
	for _, noisy := range []bool{false, true} {
		name := "bitplane"
		if noisy {
			name = "bitplane-noisy"
		}
		b.Run(name, func(b *testing.B) {
			bp, err := eng.NewBitplane(initial)
			if err != nil {
				b.Fatal(err)
			}
			if noisy {
				bp.noise = noise
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bp.Step()
			}
			perVertex(b)
		})
	}
	b.Run("sweep-noisy", func(b *testing.B) {
		cur, next := initial.Clone(), initial.Clone()
		sched := &Schedule{}
		scratch := make([]color.Color, 0, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng.stepRangeStochastic(i+1, sched, noise, cur.Cells(), next.Cells(), 0, n, scratch)
			cur, next = next, cur
		}
		perVertex(b)
	})
}
