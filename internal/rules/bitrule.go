package rules

import "repro/internal/color"

// Word-parallel ("bit-sliced") rule kernels.
//
// The engine's bitplane tier packs the configuration into bit planes — bit v
// of plane b is bit b of (color-1) of vertex v — and gathers each of the
// four neighbor ports as a shifted copy of those planes.  A rule whose
// decision has a closed bitwise form can then recolor 64 vertices per word
// operation.  The kernels below are exact: each one is the rule's Next
// decision, read as a function of the neighbor colors' multiplicities,
// compiled to a carry-save adder network over the per-port indicator bits,
// and the bitrule tests pin them bit-identical to Next on every
// neighborhood.
//
// The SMP-Protocol's three cases map to adder outputs directly.  Writing
// count_e for the number of ports carrying encoding e (counts sum to 4):
//
//   - "some color on ≥ 3 neighbors" is bit2 | (bit1 & bit0) of count_e;
//   - the 2+1+1 pattern is count_e == 2 with no *other* encoding at 2 —
//     when exactly one pair exists the remaining two ports are automatically
//     distinct, which is the paper's uniqueness condition;
//   - the 2+2 tie is two encodings at exactly 2, the case that keeps the
//     current color and distinguishes SMP from the Prefer-Black /
//     Prefer-Current variants.

// BitPorts is the number of neighbor ports of the torus topologies (equal to
// grid.Degree; rules deliberately does not import grid).
const BitPorts = 4

// MaxBitPlanes is the deepest bit slicing supported: two planes cover the
// encodings 0..3, i.e. palettes up to color.MaxPlaneColors.
const MaxBitPlanes = 2

// BitState is the word-parallel working set of one bit-sliced round.  All
// plane slices have equal length; when Planes == 1 the second plane of Cur,
// Nbr and Next may be nil and must not be touched.
//
// Lanes beyond the vertex count in the final word carry unspecified values
// on input and output; the engine masks them after the kernel runs.
type BitState struct {
	// Planes is the number of live planes (1 for k ≤ 2, 2 for k ≤ 4).
	Planes int
	// Cur[b][w] is plane b of the current configuration for lanes
	// 64w..64w+63.
	Cur [MaxBitPlanes][]uint64
	// Nbr[p][b][w] is plane b of the port-p neighbor's color, i.e. the
	// configuration planes gathered through the topology's port-p shift.
	Nbr [BitPorts][MaxBitPlanes][]uint64
	// Next receives the output planes.
	Next [MaxBitPlanes][]uint64
}

// BitKernel evaluates a rule 64 vertices at a time.
type BitKernel interface {
	// StepWords writes st.Next for words [lo, hi) from st.Cur and st.Nbr.
	// Implementations must not touch words outside the range, so the engine
	// can stripe a step across workers.
	StepWords(st *BitState, lo, hi int)
}

// BitRule is implemented by rules with an exact word-parallel kernel.
//
// Contract: the kernel returned for palette {1..k} must agree with Next on
// every configuration whose colors lie in {1..k}, and the rule must never
// recolor a vertex to a color absent from its own color and its neighbors'
// (rules that mint new colors, like Increment, cannot be bit-sliced because
// the plane count is fixed by the initial configuration).
type BitRule interface {
	Rule
	// BitKernel returns the kernel for the palette {1..k}, or ok=false when
	// the rule has no exact kernel at that palette size.
	BitKernel(k int) (BitKernel, bool)
}

// Static guarantees that every shipped rule with a closed bitwise form
// actually exposes it.
var (
	_ BitRule = SMP{}
	_ BitRule = SimpleMajorityPB{}
	_ BitRule = SimpleMajorityPC{}
	_ BitRule = StrongMajority{}
	_ BitRule = Threshold{}
	_ BitRule = IrreversibleSMP{}
)

// csa4 sums four one-bit lanes with a carry-save adder network: the result
// (b2 b1 b0) is the per-lane population count 0..4 of the four input words.
func csa4(n0, n1, n2, n3 uint64) (b2, b1, b0 uint64) {
	a, ac := n0^n1, n0&n1
	b, bc := n2^n3, n2&n3
	b0 = a ^ b
	k0 := a & b
	b1 = ac ^ bc ^ k0
	b2 = (ac & bc) | (k0 & (ac ^ bc))
	return
}

// geCount turns the adder output into the indicator "count ≥ theta".
func geCount(b2, b1, b0 uint64, theta int) uint64 {
	switch {
	case theta <= 0:
		return ^uint64(0)
	case theta == 1:
		return b2 | b1 | b0
	case theta == 2:
		return b2 | b1
	case theta == 3:
		return b2 | (b1 & b0)
	case theta == 4:
		return b2
	default:
		return 0
	}
}

// enc4 summarizes one word of a two-plane neighborhood: for each encoding e,
// the per-lane indicators of count_e ≥ 2, ≥ 3 and == 2 over the four ports.
type enc4 struct {
	ge2, ge3, eq2 [4]uint64
}

// countEnc4 tallies the four ports of word w into per-encoding indicators.
func countEnc4(st *BitState, w int) (c enc4) {
	var m [4][BitPorts]uint64
	for p := 0; p < BitPorts; p++ {
		lo := st.Nbr[p][0][w]
		hi := st.Nbr[p][1][w]
		m[0][p] = ^(lo | hi)
		m[1][p] = lo &^ hi
		m[2][p] = hi &^ lo
		m[3][p] = lo & hi
	}
	for e := 0; e < 4; e++ {
		b2, b1, b0 := csa4(m[e][0], m[e][1], m[e][2], m[e][3])
		c.ge3[e] = b2 | (b1 & b0)
		c.eq2[e] = b1 &^ (b0 | b2)
		c.ge2[e] = b2 | b1
	}
	return
}

// twoPairs is the per-lane indicator of the 2+2 tie: at least two encodings
// with exactly two ports each.
func twoPairs(eq2 *[4]uint64) uint64 {
	return (eq2[0] & (eq2[1] | eq2[2] | eq2[3])) |
		(eq2[1] & (eq2[2] | eq2[3])) |
		(eq2[2] & eq2[3])
}

// writeEnc2 combines per-encoding adopt masks into the two output planes:
// lanes in adopt[e] take encoding e, all others keep the current planes.
// The adopt masks must be pairwise disjoint (counts sum to 4, so at most one
// encoding can win a lane).
func writeEnc2(st *BitState, w int, adopt *[4]uint64) {
	sel := adopt[0] | adopt[1] | adopt[2] | adopt[3]
	st.Next[0][w] = adopt[1] | adopt[3] | (st.Cur[0][w] &^ sel)
	st.Next[1][w] = adopt[2] | adopt[3] | (st.Cur[1][w] &^ sel)
}

// smpKernel1 is the one-plane SMP kernel.  With two colors the 2+1+1 case
// cannot occur and the 2+2 split is exactly "two ports set": adopt on a
// strict majority, keep on the tie.  The Prefer-Current and strong-majority
// rules reduce to the same function at k = 2, so they share it.
type smpKernel1 struct{}

func (smpKernel1) StepWords(st *BitState, lo, hi int) {
	cur, next := st.Cur[0], st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		b2, b1, b0 := csa4(n0[w], n1[w], n2[w], n3[w])
		ge3 := b2 | (b1 & b0)
		eq2 := b1 &^ (b0 | b2)
		next[w] = ge3 | (eq2 & cur[w])
	}
}

// smpKernel2 is the two-plane SMP kernel: per encoding, adopt on count ≥ 3
// or on the unique pair of a 2+1+1 split; keep on 2+2 ties and 1+1+1+1.
type smpKernel2 struct{}

func (smpKernel2) StepWords(st *BitState, lo, hi int) {
	for w := lo; w < hi; w++ {
		c := countEnc4(st, w)
		two2 := twoPairs(&c.eq2)
		var adopt [4]uint64
		for e := 0; e < 4; e++ {
			adopt[e] = c.ge3[e] | (c.eq2[e] &^ two2)
		}
		writeEnc2(st, w, &adopt)
	}
}

// majority3Kernel2 adopts only on count ≥ 3 (Prefer-Current and strong
// majority; uniqueness is automatic with four ports).
type majority3Kernel2 struct{}

func (majority3Kernel2) StepWords(st *BitState, lo, hi int) {
	for w := lo; w < hi; w++ {
		c := countEnc4(st, w)
		adopt := c.ge3
		writeEnc2(st, w, &adopt)
	}
}

// pbKernel1 is the one-plane Prefer-Black kernel for a representable black
// encoding: black on ≥ 2 black ports, otherwise the other color (which then
// necessarily holds ≥ 3 ports).
type pbKernel1 struct{ black int }

func (k pbKernel1) StepWords(st *BitState, lo, hi int) {
	next := st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		b2, b1, b0 := csa4(n0[w], n1[w], n2[w], n3[w])
		if k.black == 1 {
			// ≥ 2 ports carry encoding 1 → black (1); else encoding 0 holds
			// ≥ 3 ports → 0.
			next[w] = b2 | b1
		} else {
			// ≥ 2 ports carry encoding 0 ⇔ count₁ ≤ 2 → black (0); else 1.
			next[w] = b2 | (b1 & b0)
		}
	}
}

// pbKernel2 is the two-plane Prefer-Black kernel: black wins any lane with
// ≥ 2 black ports; elsewhere the unique ≥ 2 majority (count ≥ 3, or the
// single pair of a 2+1+1 split) is adopted, and 2+2 ties keep the current
// color.
type pbKernel2 struct{ black int }

func (k pbKernel2) StepWords(st *BitState, lo, hi int) {
	for w := lo; w < hi; w++ {
		c := countEnc4(st, w)
		two2 := twoPairs(&c.eq2)
		blackSel := c.ge2[k.black]
		var adopt [4]uint64
		for e := 0; e < 4; e++ {
			adopt[e] = (c.ge3[e] | (c.eq2[e] &^ two2)) &^ blackSel
		}
		adopt[k.black] = blackSel
		writeEnc2(st, w, &adopt)
	}
}

// thresholdKernel1 is the one-plane irreversible threshold kernel.
type thresholdKernel1 struct{ target, theta int }

func (k thresholdKernel1) StepWords(st *BitState, lo, hi int) {
	cur, next := st.Cur[0], st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		t0, t1, t2, t3 := n0[w], n1[w], n2[w], n3[w]
		if k.target == 0 {
			t0, t1, t2, t3 = ^t0, ^t1, ^t2, ^t3
		}
		b2, b1, b0 := csa4(t0, t1, t2, t3)
		ge := geCount(b2, b1, b0, k.theta)
		if k.target == 1 {
			next[w] = cur[w] | ge
		} else {
			next[w] = cur[w] &^ ge
		}
	}
}

// thresholdKernel2 is the two-plane irreversible threshold kernel.
type thresholdKernel2 struct{ target, theta int }

func (k thresholdKernel2) StepWords(st *BitState, lo, hi int) {
	t0mask := -uint64(k.target & 1)
	t1mask := -uint64((k.target >> 1) & 1)
	for w := lo; w < hi; w++ {
		var m [BitPorts]uint64
		for p := 0; p < BitPorts; p++ {
			lo64 := st.Nbr[p][0][w]
			hi64 := st.Nbr[p][1][w]
			if k.target&1 == 0 {
				lo64 = ^lo64
			}
			if k.target&2 == 0 {
				hi64 = ^hi64
			}
			m[p] = lo64 & hi64
		}
		b2, b1, b0 := csa4(m[0], m[1], m[2], m[3])
		ge := geCount(b2, b1, b0, k.theta)
		st.Next[0][w] = (ge & t0mask) | (st.Cur[0][w] &^ ge)
		st.Next[1][w] = (ge & t1mask) | (st.Cur[1][w] &^ ge)
	}
}

// irrevSMPKernel1 is the one-plane monotone SMP kernel: lanes move toward
// the target encoding exactly when the SMP decision lands on it.
type irrevSMPKernel1 struct{ target int }

func (k irrevSMPKernel1) StepWords(st *BitState, lo, hi int) {
	cur, next := st.Cur[0], st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		b2, b1, b0 := csa4(n0[w], n1[w], n2[w], n3[w])
		smp := (b2 | (b1 & b0)) | ((b1 &^ (b0 | b2)) & cur[w])
		if k.target == 1 {
			next[w] = cur[w] | smp
		} else {
			next[w] = cur[w] & smp
		}
	}
}

// irrevSMPKernel2 is the two-plane monotone SMP kernel.
type irrevSMPKernel2 struct{ target int }

func (k irrevSMPKernel2) StepWords(st *BitState, lo, hi int) {
	t0mask := -uint64(k.target & 1)
	t1mask := -uint64((k.target >> 1) & 1)
	for w := lo; w < hi; w++ {
		c := countEnc4(st, w)
		two2 := twoPairs(&c.eq2)
		adopt := c.ge3[k.target] | (c.eq2[k.target] &^ two2)
		st.Next[0][w] = (adopt & t0mask) | (st.Cur[0][w] &^ adopt)
		st.Next[1][w] = (adopt & t1mask) | (st.Cur[1][w] &^ adopt)
	}
}

// identityKernel copies the configuration unchanged: the exact kernel of
// rules whose parameters make them inert on the palette (e.g. a threshold
// rule whose target color cannot occur).
type identityKernel struct{ planes int }

func (k identityKernel) StepWords(st *BitState, lo, hi int) {
	for b := 0; b < k.planes; b++ {
		copy(st.Next[b][lo:hi], st.Cur[b][lo:hi])
	}
}

// BitKernel returns the SMP-Protocol kernel.
func (SMP) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	if planes == 1 {
		return smpKernel1{}, true
	}
	return smpKernel2{}, true
}

// BitKernel returns the Prefer-Black kernel.  A black color outside the
// palette can never reach two neighbors, so the rule degenerates to the
// unique-majority adoption — which is exactly the SMP decision.
func (r SimpleMajorityPB) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	enc := int(r.Black) - 1
	if planes == 1 {
		if enc == 0 || enc == 1 {
			return pbKernel1{black: enc}, true
		}
		return smpKernel1{}, true
	}
	if enc >= 0 && enc < 4 {
		return pbKernel2{black: enc}, true
	}
	return smpKernel2{}, true
}

// BitKernel returns the Prefer-Current kernel.
func (SimpleMajorityPC) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	if planes == 1 {
		// With two colors "count ≥ 3, else keep" is the SMP decision.
		return smpKernel1{}, true
	}
	return majority3Kernel2{}, true
}

// BitKernel returns the strong-majority kernel (same decision as
// Prefer-Current on four ports).
func (StrongMajority) BitKernel(k int) (BitKernel, bool) {
	return SimpleMajorityPC{}.BitKernel(k)
}

// BitKernel returns the linear-threshold kernel.  A target outside the
// palette with a positive threshold can never activate (no neighbor carries
// it), giving the identity; with Theta ≤ 0 the rule would mint the absent
// target color, which the plane encoding cannot represent, so there is no
// kernel.
func (r Threshold) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	enc := int(r.Target) - 1
	if enc < 0 || enc >= 1<<planes {
		if r.Theta <= 0 {
			return nil, false
		}
		return identityKernel{planes: planes}, true
	}
	if planes == 1 {
		return thresholdKernel1{target: enc, theta: r.Theta}, true
	}
	return thresholdKernel2{target: enc, theta: r.Theta}, true
}

// BitKernel returns the monotone SMP kernel.  A target outside the palette
// can never be adopted (SMP only ever returns a color present in the
// neighborhood), giving the identity.
func (r IrreversibleSMP) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	enc := int(r.Target) - 1
	if enc < 0 || enc >= 1<<planes {
		return identityKernel{planes: planes}, true
	}
	if planes == 1 {
		return irrevSMPKernel1{target: enc}, true
	}
	return irrevSMPKernel2{target: enc}, true
}
