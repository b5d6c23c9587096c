package sim

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// ErrBitplaneIneligible is wrapped by the errors NewBitplane (and a run with
// a forced KernelBitplane) returns when the engine's rule, topology or the
// run's coloring has no exact word-parallel form.
var ErrBitplaneIneligible = errors.New("sim: combination does not qualify for the bitplane kernel")

// Bitplane is the bit-sliced stepper: the configuration lives as one or two
// bit planes of ⌈n/64⌉ uint64 words (bit v of plane b is bit b of the color
// encoding of vertex v), neighbor gathering is a word rotation per port plus
// O(rows+cols) border patches (grid.BuildShiftPlan), and the rule recolors 64
// vertices per word operation through its rules.BitKernel.  On the early
// high-churn rounds of a run — where the dirty frontier is the whole lattice
// and the scalar sweep is memory-bound — this is roughly an order of
// magnitude faster per round than the sequential sweep.
//
// A Bitplane requires all three of:
//
//   - a rule implementing rules.BitRule with a kernel for the palette;
//   - a shift-regular topology (all three of the paper's tori qualify);
//   - colors within {1..4} (⌈log₂k⌉ ≤ 2 planes).
//
// Results are bit-identical to the full-sweep oracle; the differential tests
// in bitplane_test.go pin this on every qualifying rule × topology pair.
//
// Synchronous ε-faulty runs (Options.Noise) step here too: after the kernel
// writes a slab's Next planes, a fault pass overwrites the lanes that
// misfire this round with their drawn colors.  The draws are the scalar
// path's rules.FaultRound over the same vertex keys, so a noisy bitplane
// run equals the noisy sweep; the palette then also covers the noise
// colors {1..Noise.Colors}.
//
// Like Frontier, a Bitplane is single-goroutine state (the engine stripes
// kernel words across the worker pool internally on parallel runs); all
// buffers are allocated at construction and recycled by resetWith, so
// steady-state Step calls perform zero heap allocations.
type Bitplane struct {
	e    *Engine
	plan *grid.ShiftPlan
	kern rules.BitKernel
	// k is the palette size in force (the largest color of the initial
	// configuration); planes is ⌈log₂k⌉ clamped to 1.
	k, planes int
	// nbits is the vertex count, words the plane length ⌈nbits/64⌉ and
	// tailMask the valid-lane mask of the last word.
	nbits, words int
	tailMask     uint64
	// st is the kernel's working set: current planes, per-port shifted
	// planes and output planes.
	st rules.BitState
	// prevPrev holds the configuration two rounds back for period-2 cycle
	// detection (maintained only while detectCycles is set).
	prevPrev  [rules.MaxBitPlanes][]uint64
	cycleBase int
	// changed[w] is the per-word diff mask of the last Step.
	changed []uint64
	// tgtEver/tgtPrev/tgtCur back the engine's word-parallel target-spread
	// bookkeeping (FirstReached / MonotoneTarget).
	tgtEver, tgtPrev, tgtCur []uint64
	// cfg is the lazily unpacked scalar view of the configuration.
	cfg      *color.Coloring
	cfgRound int
	// noise, when non-nil, makes every round ε-faulty; faults holds the
	// current round's draws, derived before any slab runs and only read by
	// the slab tasks, and keys the engine's vertex keys they are drawn over.
	noise  *Noise
	faults rules.FaultRound
	keys   []uint64

	detectCycles bool
	cycle        bool
	prevChanged  int
	round        int
}

// bitplaneCheck decides bitplane eligibility for a run over initial (with
// faults drawn from {1..noiseColors}; 0 for noise-free runs) and returns the
// palette size, shift plan and kernel on success.  It checks the rule, then
// the topology, then the colors and only then the shift plan, whose O(n)
// probe a run that fails on anything else never pays.
func (e *Engine) bitplaneCheck(initial *color.Coloring, noiseColors int) (int, *grid.ShiftPlan, rules.BitKernel, error) {
	if e.bitRule == nil {
		return 0, nil, nil, fmt.Errorf("%w: rule %q has no word-parallel kernel", ErrBitplaneIneligible, e.rule.Name())
	}
	if e.topo == nil {
		return 0, nil, nil, fmt.Errorf("%w: substrate %q is not a torus topology", ErrBitplaneIneligible, e.sub.Name())
	}
	if noiseColors > color.MaxPlaneColors {
		return 0, nil, nil, fmt.Errorf("%w: noise palette {1..%d} exceeds {1..%d}", ErrBitplaneIneligible, noiseColors, color.MaxPlaneColors)
	}
	k := max(1, noiseColors)
	for _, c := range initial.Cells() {
		if c < 1 || int(c) > color.MaxPlaneColors {
			return 0, nil, nil, fmt.Errorf("%w: coloring contains color %v outside {1..%d}", ErrBitplaneIneligible, c, color.MaxPlaneColors)
		}
		if int(c) > k {
			k = int(c)
		}
	}
	kern, ok := e.bitRule.BitKernel(k)
	if !ok {
		return 0, nil, nil, fmt.Errorf("%w: rule %q has no kernel for palette {1..%d}", ErrBitplaneIneligible, e.rule.Name(), k)
	}
	plan := e.shiftPlan()
	if plan == nil {
		return 0, nil, nil, fmt.Errorf("%w: topology %q is not shift-regular", ErrBitplaneIneligible, e.topo.Name())
	}
	return k, plan, kern, nil
}

// shiftPlan returns the torus's shift decomposition, probed on first use;
// nil off the tori or when not shift-regular.
func (e *Engine) shiftPlan() *grid.ShiftPlan {
	if e.topo == nil {
		return nil
	}
	e.planOnce.Do(func() { e.plan, _ = grid.BuildShiftPlan(e.csr) })
	return e.plan
}

// NewBitplane returns a bit-sliced stepper over the engine's topology and
// rule, initialized to the given configuration, or an error (wrapping
// ErrBitplaneIneligible) describing why the combination has no exact
// word-parallel form.  It is the public entry point for benchmarks and
// callers that drive rounds by hand; Run uses a pooled Bitplane internally.
func (e *Engine) NewBitplane(initial *color.Coloring) (*Bitplane, error) {
	d := e.sub.Dims()
	if initial.Dims() != d {
		panic(fmt.Sprintf("sim: NewBitplane dimension mismatch %v vs %v", initial.Dims(), d))
	}
	k, plan, kern, err := e.bitplaneCheck(initial, 0)
	if err != nil {
		return nil, err
	}
	bp := e.newBitplaneBuffers()
	if err := bp.resetWith(initial, k, plan, kern); err != nil {
		return nil, err
	}
	return bp, nil
}

// newBitplaneBuffers allocates a blank stepper (all plane and bookkeeping
// buffers, no configuration); callers must resetWith before stepping.
func (e *Engine) newBitplaneBuffers() *Bitplane {
	d := e.sub.Dims()
	bp := &Bitplane{
		e:        e,
		nbits:    d.N(),
		words:    color.PlaneWords(d.N()),
		tailMask: color.PlaneTailMask(d.N()),
		cfg:      color.NewColoring(d, color.None),
		cfgRound: -1,
	}
	for b := 0; b < rules.MaxBitPlanes; b++ {
		bp.st.Cur[b] = make([]uint64, bp.words)
		bp.st.Next[b] = make([]uint64, bp.words)
		bp.prevPrev[b] = make([]uint64, bp.words)
		for p := 0; p < rules.BitPorts; p++ {
			bp.st.Nbr[p][b] = make([]uint64, bp.words)
		}
	}
	bp.changed = make([]uint64, bp.words)
	bp.tgtEver = make([]uint64, bp.words)
	bp.tgtPrev = make([]uint64, bp.words)
	bp.tgtCur = make([]uint64, bp.words)
	return bp
}

// resetWith rewinds the stepper to round 0 on a new initial configuration,
// reusing every buffer, with the eligibility products already derived: the
// run drivers checked eligibility to pick the tier, so the configuration is
// not rescanned.  The argument is copied, not retained.
func (bp *Bitplane) resetWith(initial *color.Coloring, k int, plan *grid.ShiftPlan, kern rules.BitKernel) error {
	bp.k, bp.plan, bp.kern = k, plan, kern
	bp.planes, _ = color.PlanesFor(k)
	bp.st.Planes = bp.planes
	if !color.PackPlanes(initial.Cells(), bp.st.Cur[:bp.planes]) {
		return fmt.Errorf("%w: coloring not representable in %d planes", ErrBitplaneIneligible, bp.planes)
	}
	bp.round, bp.prevChanged = 0, 0
	bp.noise = nil
	bp.cycle, bp.detectCycles = false, false
	bp.cycleBase = 0
	bp.cfgRound = -1
	return nil
}

// DetectCycles enables or disables period-2 cycle tracking.  It is off
// after a reset because it costs one plane copy and compare per Step; the
// engine switches it on for runs with Options.DetectCycles.
func (bp *Bitplane) DetectCycles(on bool) {
	bp.detectCycles = on
	bp.cycle = false
	bp.cycleBase = bp.round
}

// Cycle reports whether the last Step exactly undid the one before it, i.e.
// the configuration equals the one two rounds ago.  Always false unless
// DetectCycles(true) was called at least two rounds earlier.
func (bp *Bitplane) Cycle() bool { return bp.cycle }

// bitplaneSlabWords is the cache block of the bit-sliced step: neighbor
// shifts and the kernel are fused per slab of this many plane words, so a
// slab's shifted Nbr words are consumed by the kernel while still resident
// in cache instead of being streamed out and re-read a full plane later.
// A slab touches ~12 streams of 8 bytes per word (two Cur planes read by
// shifts and kernel, eight Nbr written then read, two Next written), so
// 8192 words is a ~768 KB block working set.
//
// The value was picked by BenchmarkBitplaneSlabWords (measurements in the
// README performance note): on planes that fit cache outright (≤ 256×256)
// block size is neutral, and on 1024×1024 the 8192-word slab matches
// full-plane passes while L2-sized blocks (512–2048 words) LOSE up to
// ~15% — the plane streams are perfectly sequential, so the hardware
// prefetchers already hide the memory latency and smaller blocks only add
// per-slab border-patch rescans and shorter streams.  The constant keeps
// the fused form (one pass structure for the sequential and striped paths,
// and a bound on the block working set on future huge lattices) at the
// measured-neutral size rather than chasing a blocking win this workload
// does not have.
const bitplaneSlabWords = 8192

// Step applies one synchronous round to all planes and returns the number
// of vertices that changed color.
func (bp *Bitplane) Step() int {
	bp.drawFaults()
	bp.stepSlabs(0, bp.words, bitplaneSlabWords)
	return bp.finishStep()
}

// drawFaults derives the fault draws of the round about to be stepped
// (rounds are 1-based, as in the scalar drivers).
func (bp *Bitplane) drawFaults() {
	if bp.noise != nil {
		bp.faults = bp.noise.round(uint64(bp.round + 1))
	}
}

// stepStriped is Step with the fused slabs striped across the shared worker
// pool.  Each task owns a contiguous word range and runs shift+kernel slab
// by slab within it; tasks share only read-only state (the Cur planes,
// stable for the whole round, and the shift plan), so no intra-round
// barrier is needed.
func (bp *Bitplane) stepStriped(st *runState, workers int) int {
	if workers > bp.words {
		workers = bp.words
	}
	if workers <= 1 {
		return bp.Step()
	}
	bp.drawFaults()
	st.stripeAcross(bp.words, workers, func(t *stripeTask, lo, hi int) {
		*t = stripeTask{run: runBitSlabTask, wg: &st.wg, bp: bp, lo: lo, hi: hi}
	})
	return bp.finishStep()
}

// stepSlabs steps the word range [lo, hi) in fused cache blocks of at most
// slab words each: all per-port neighbor shifts for the block, then the
// kernel over the block.
func (bp *Bitplane) stepSlabs(lo, hi, slab int) {
	for w := lo; w < hi; w += slab {
		bp.stepSlab(w, min(w+slab, hi))
	}
}

// stepSlab computes one fused block: the per-port shifted plane words in
// [wlo, whi), then the kernel over the same range, then (under noise) the
// fault pass.  The kernel is a pure wordwise map (Next[w] is a function of
// Cur and Nbr words at w only), so producing Nbr slab-locally is exact.
func (bp *Bitplane) stepSlab(wlo, whi int) {
	for p := 0; p < rules.BitPorts; p++ {
		port := &bp.plan.Ports[p]
		for b := 0; b < bp.planes; b++ {
			shiftPlaneRange(bp.st.Nbr[p][b], bp.st.Cur[b], port, bp.nbits, bp.tailMask, wlo, whi)
		}
	}
	bp.kern.StepWords(&bp.st, wlo, whi)
	if bp.noise != nil {
		bp.faultSlab(wlo, whi)
	}
}

// faultSlab applies the round's ε-faults to the Next words in [wlo, whi):
// each word's misfire mask is rules.FaultRound.Mask over its vertices'
// keys, the draw the scalar sweep makes one vertex at a time, so a lane
// costs two mixes of its key.  The faulted lanes are overwritten with their
// drawn colors, which lie in the palette and so fit the planes.
func (bp *Bitplane) faultSlab(wlo, whi int) {
	f := &bp.faults
	next := &bp.st.Next
	for w := wlo; w < whi; w++ {
		base := w << 6
		keys := bp.keys[base:min(base+64, bp.nbits)]
		mask := f.Mask(keys)
		if mask == 0 {
			continue
		}
		var enc [rules.MaxBitPlanes]uint64
		for m := mask; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			c := uint64(f.Color(keys[b]) - 1)
			enc[0] |= (c & 1) << b
			enc[1] |= (c >> 1) << b
		}
		for p := 0; p < bp.planes; p++ {
			next[p][w] = next[p][w]&^mask | enc[p]
		}
	}
}

// finishStep masks the kernel output, maintains cycle tracking and the diff
// mask, and commits Next as the new configuration.
func (bp *Bitplane) finishStep() int {
	bp.round++
	st := &bp.st
	for b := 0; b < bp.planes; b++ {
		st.Next[b][bp.words-1] &= bp.tailMask
	}
	if bp.detectCycles {
		if bp.round >= bp.cycleBase+2 {
			cycle := true
		compare:
			for b := 0; b < bp.planes; b++ {
				next, pp := st.Next[b], bp.prevPrev[b]
				for w := range next {
					if next[w] != pp[w] {
						cycle = false
						break compare
					}
				}
			}
			bp.cycle = cycle
		}
		for b := 0; b < bp.planes; b++ {
			copy(bp.prevPrev[b], st.Cur[b])
		}
	}
	changed := 0
	for w := 0; w < bp.words; w++ {
		var d uint64
		for b := 0; b < bp.planes; b++ {
			d |= st.Cur[b][w] ^ st.Next[b][w]
		}
		bp.changed[w] = d
		changed += bits.OnesCount64(d)
	}
	st.Cur, st.Next = st.Next, st.Cur
	bp.prevChanged = changed
	return changed
}

// Unpack writes the current configuration into dst, which must have the
// engine's dimensions.
func (bp *Bitplane) Unpack(dst *color.Coloring) {
	if dst.Dims() != bp.e.sub.Dims() {
		panic(fmt.Sprintf("sim: Bitplane.Unpack dimension mismatch %v vs %v", dst.Dims(), bp.e.sub.Dims()))
	}
	color.UnpackPlanes(bp.st.Cur[:bp.planes], dst.Cells())
}

// Config returns the current configuration, unpacked lazily into an internal
// buffer: valid until the next Step or reset, and must not be mutated.
func (bp *Bitplane) Config() *color.Coloring {
	if bp.cfgRound != bp.round {
		bp.Unpack(bp.cfg)
		bp.cfgRound = bp.round
	}
	return bp.cfg
}

// Monochromatic reports whether every vertex carries the same color, by
// checking that each plane is uniformly zero or uniformly one.
func (bp *Bitplane) Monochromatic() bool {
	for b := 0; b < bp.planes; b++ {
		plane := bp.st.Cur[b]
		var want uint64
		if plane[0]&1 != 0 {
			want = ^uint64(0)
		}
		for w := 0; w < bp.words-1; w++ {
			if plane[w] != want {
				return false
			}
		}
		if plane[bp.words-1] != want&bp.tailMask {
			return false
		}
	}
	return true
}

// targetMask writes the per-lane indicator of "vertex carries t" into dst.
// A target outside the representable encodings yields the zero mask.
func (bp *Bitplane) targetMask(dst []uint64, t color.Color) {
	enc := int(t) - 1
	if enc < 0 || enc >= 1<<bp.planes {
		for w := range dst[:bp.words] {
			dst[w] = 0
		}
		return
	}
	for w := 0; w < bp.words; w++ {
		m := ^uint64(0)
		for b := 0; b < bp.planes; b++ {
			x := bp.st.Cur[b][w]
			if enc>>b&1 == 0 {
				x = ^x
			}
			m &= x
		}
		dst[w] = m
	}
	dst[bp.words-1] &= bp.tailMask
}

// lastChanges calls fn for every vertex that changed in the last Step,
// passing its color before the change (read from the previous configuration,
// which the step's buffer swap left in st.Next).
func (bp *Bitplane) lastChanges(fn func(v int32, old color.Color)) {
	for w := 0; w < bp.words; w++ {
		dw := bp.changed[w]
		for dw != 0 {
			b := bits.TrailingZeros64(dw)
			dw &= dw - 1
			e := 0
			for pl := 0; pl < bp.planes; pl++ {
				e |= int(bp.st.Next[pl][w]>>uint(b)&1) << pl
			}
			fn(int32(w<<6+b), color.Color(e+1))
		}
	}
}

// shiftPlaneRange gathers one plane through one neighbor port for the dst
// words in [wlo, whi): the bit rotation by the port's base shift restricted
// to the range, then the port's border patches that land inside it.  The
// patch lists are O(rows+cols) and scanned per slab; against the O(words)
// word work of the slab pass the rescans are noise.
func shiftPlaneRange(dst, src []uint64, port *grid.ShiftPort, nbits int, tailMask uint64, wlo, whi int) {
	rotateBitsRange(dst, src, nbits, port.Shift, tailMask, wlo, whi)
	for i, db := range port.FixDst {
		w := int(db >> 6)
		if w < wlo || w >= whi {
			continue
		}
		sb := port.FixSrc[i]
		bit := src[sb>>6] >> uint(sb&63) & 1
		o := uint(db & 63)
		dst[w] = dst[w]&^(1<<o) | bit<<o
	}
}

// rotateBitsRange writes dst bit i = src bit (i+s) mod nbits for the bits
// of dst words [wlo, whi), with s in [0, nbits).  src must honor the plane
// invariant that bits ≥ nbits are zero; dst receives the same invariant.
// dst and src must not alias.  The full rotation is the [0, len(src)) range.
func rotateBitsRange(dst, src []uint64, nbits, s int, tailMask uint64, wlo, whi int) {
	if s == 0 {
		copy(dst[wlo:whi], src[wlo:whi])
		return
	}
	words := len(src)
	// Low part: dst bit i = src bit i+s for i < nbits-s (a logical right
	// shift of the bit array; lanes past the end read the zero invariant).
	off, sh := s>>6, uint(s&63)
	if sh == 0 {
		for w := wlo; w < whi; w++ {
			var x uint64
			if w+off < words {
				x = src[w+off]
			}
			dst[w] = x
		}
	} else {
		for w := wlo; w < whi; w++ {
			var x uint64
			if w+off < words {
				x = src[w+off] >> sh
				if w+off+1 < words {
					x |= src[w+off+1] << (64 - sh)
				}
			}
			dst[w] = x
		}
	}
	// High part: dst bit i |= src bit i-(nbits-s) for i ≥ nbits-s (the
	// wrapped head of the array, a logical left shift).  The two parts are
	// disjoint because src bits ≥ nbits are zero.
	t := nbits - s
	off, sh = t>>6, uint(t&63)
	lo := max(wlo, off)
	if sh == 0 {
		for w := whi - 1; w >= lo; w-- {
			dst[w] |= src[w-off]
		}
	} else {
		for w := whi - 1; w >= lo; w-- {
			x := src[w-off] << sh
			if w-off-1 >= 0 {
				x |= src[w-off-1] >> (64 - sh)
			}
			dst[w] |= x
		}
	}
	if whi == words {
		dst[words-1] &= tailMask
	}
}

// downshiftFactor and downshiftRounds tune the bitplane→frontier handoff on
// auto-tier sequential runs: after downshiftRounds consecutive rounds with
// changed·downshiftFactor < n, the dirty frontier (whose per-round cost
// scales with the change count, not n) is cheaper than the fixed word work
// of the bitplane and the run switches steppers.  The handoff itself lives
// in bitplaneDriver.downshift (stream.go), the tier's view through the
// engine's single round loop.
const (
	downshiftFactor = 32
	downshiftRounds = 2
)
