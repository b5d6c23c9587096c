package color

// Lane packing is the bit-sliced ensemble layout.  Where the bitplane
// layout (PackPlanes) spreads ONE coloring across words — word w of plane b
// holds bit b of 64 consecutive vertices — the lane layout spreads up to 64
// COLORINGS across the bits of per-vertex words: bit r of words[v] is the
// one-bit encoding (color − 1) of vertex v in replica r.  One word
// operation then steps the same vertex of 64 independent runs at once,
// which is the batching shape the ensemble workloads (VerifyBatch sweeps,
// greedy target-set candidate evaluation, Monte-Carlo replicas) want.  The
// layout is exact only for two-color states (colors 1 and 2), the k = 2
// regime of the carry-save BitRule kernels.
//
// This file is the only place that knows the encoding: replicas held as
// colorings are packed by PackLanes, and replicas drawn straight into lane
// words (the ensemble's Bernoulli tiles) get each vertex's word from
// LaneWord, with no coloring built.

// MaxLanes is the ensemble width of the lane layout: one replica per bit of
// a 64-bit word.
const MaxLanes = 64

// PackLanes packs the replica colorings runs[0..L-1] (1 ≤ L ≤ MaxLanes)
// into words, one word per vertex: bit r of words[v] is runs[r]'s color at
// v minus one.  Bits of unused lanes are cleared.  It reports whether the
// packing is exact; it is false — and words is unspecified — when the lane
// count is out of range, a replica's length disagrees with len(words), or
// any cell holds a color outside {1, 2}.
func PackLanes(runs []*Coloring, words []uint64) bool {
	if len(runs) == 0 || len(runs) > MaxLanes {
		return false
	}
	for i := range words {
		words[i] = 0
	}
	for r, run := range runs {
		cells := run.Cells()
		if len(cells) != len(words) {
			return false
		}
		bit := uint64(1) << uint(r)
		for v, c := range cells {
			switch c {
			case 1:
				// encoding 0: bit stays clear
			case 2:
				words[v] |= bit
			default:
				return false
			}
		}
	}
	return true
}

// LaneWord is one vertex's lane word over lanes replicas (1 ≤ lanes ≤
// MaxLanes) whose lanes in mask hold color in and whose other lanes hold
// color out, both in {1, 2}: the word PackLanes writes for that vertex,
// with the bits of unused lanes cleared.
func LaneWord(mask uint64, in, out Color, lanes int) uint64 {
	return (mask&laneFill(in) | ^mask&laneFill(out)) & (^uint64(0) >> uint(MaxLanes-lanes))
}

// laneFill is the word whose every lane holds color c ∈ {1, 2}.
func laneFill(c Color) uint64 { return -uint64(c - 1) }

// UnpackLane extracts replica lane of a lane-packed word array back into
// dst, the inverse of PackLanes for that lane.  dst must have exactly
// len(words) cells.
func UnpackLane(words []uint64, lane int, dst *Coloring) {
	cells := dst.Cells()
	_ = cells[len(words)-1]
	for v, w := range words {
		cells[v] = Color(1 + (w>>uint(lane))&1)
	}
}
