package grid

import "sync"

// ShiftPort describes one neighbor port of a shift-regular topology in the
// form the bit-sliced simulation tier consumes: for almost every vertex v the
// port-p neighbor is the fixed flat rotation (v + Shift) mod (Rows·Cols), and
// the few border vertices where the topology's wrap-around departs from that
// rotation are listed explicitly as (destination, source) index pairs.
//
// This decomposition is what turns neighbor gathering into word shifts: a
// flat rotation of the vertex order is a bitwise rotation of any per-vertex
// bit plane, and the fixups are O(Rows+Cols) single-bit patches applied after
// the shift.  All three of the paper's tori decompose this way — the toroidal
// mesh (up/down are pure rotations by ±Cols, left/right rotate by ±1 with one
// patch per row for the row wrap), the torus cordalis (all four ports are
// pure rotations: its row spiral makes left/right exactly ∓1 on the flat
// order), and the torus serpentinus (left/right as cordalis, up/down rotate
// by ∓Cols with one patch per column for the column spiral).
type ShiftPort struct {
	// Shift is the flat rotation amount, normalized to [0, Rows·Cols):
	// unpatched lanes read neighbor (v + Shift) mod (Rows·Cols).
	Shift int
	// FixDst and FixSrc are parallel lists of the patched lanes: the port-p
	// neighbor of vertex FixDst[i] is FixSrc[i], overriding the rotation.
	FixDst, FixSrc []int32
}

// ShiftPlan is the per-port shift decomposition of a topology.  It is
// immutable after construction and cached per topology value by ShiftPlanOf.
type ShiftPlan struct {
	dims  Dims
	Ports [Degree]ShiftPort
}

// Dims returns the lattice dimensions the plan was built for.
func (p *ShiftPlan) Dims() Dims { return p.dims }

// maxShiftFixups bounds how many lanes per port may depart from the port's
// base rotation before the topology is declared not shift-regular.  The
// paper's tori need at most max(Rows, Cols) patches per port (one per wrapped
// row or column); Rows+Cols leaves headroom for registered variants while
// still rejecting topologies whose neighbor structure is genuinely irregular
// (for which bit patching would degenerate into a scalar gather).
func maxShiftFixups(d Dims) int { return d.Rows + d.Cols }

// probeShiftPort derives the shift decomposition of one port from the dense
// neighbor table, or reports that the port is not shift-regular.  The base
// rotation is the most common (neighbor - vertex) offset; ties break toward
// the smallest offset so the plan is deterministic.
func probeShiftPort(d Dims, neighbors []int32, port int) (ShiftPort, bool) {
	n := d.N()
	hist := make(map[int]int)
	for v := 0; v < n; v++ {
		off := (int(neighbors[v*Degree+port]) - v + n) % n
		hist[off]++
	}
	shift, best := 0, -1
	for off, count := range hist {
		if count > best || (count == best && off < shift) {
			shift, best = off, count
		}
	}
	var out ShiftPort
	out.Shift = shift
	for v := 0; v < n; v++ {
		u := int(neighbors[v*Degree+port])
		if (v+shift)%n != u {
			out.FixDst = append(out.FixDst, int32(v))
			out.FixSrc = append(out.FixSrc, int32(u))
		}
	}
	if len(out.FixDst) > maxShiftFixups(d) {
		return ShiftPort{}, false
	}
	return out, true
}

// buildShiftPlan probes every port of a topology.  Prefer ShiftPlanOf, which
// caches the result (including negative results) per topology value.
func buildShiftPlan(t Topology) (*ShiftPlan, bool) {
	d := t.Dims()
	csr := CSROf(t)
	plan := &ShiftPlan{dims: d}
	for p := 0; p < Degree; p++ {
		port, ok := probeShiftPort(d, csr.Neighbors, p)
		if !ok {
			return nil, false
		}
		plan.Ports[p] = port
	}
	return plan, true
}

// shiftPlanCache memoizes shift plans per Topology value, mirroring CSROf.
// A nil plan records a negative probe so irregular topologies pay the O(n)
// probe only once.
var shiftPlanCache sync.Map // Topology -> *ShiftPlan (nil = not shift-regular)

// ShiftPlanOf returns the shift decomposition of a topology's neighbor
// geometry, or ok=false when the topology is not shift-regular (no port
// decomposes into a flat rotation plus at most Rows+Cols border patches).
// Like CSROf it caches per comparable topology value for the life of the
// process; non-comparable topologies are probed on every call.
func ShiftPlanOf(t Topology) (*ShiftPlan, bool) {
	if !comparableTopology(t) {
		plan, ok := buildShiftPlan(t)
		return plan, ok
	}
	if cached, hit := shiftPlanCache.Load(t); hit {
		plan := cached.(*ShiftPlan)
		return plan, plan != nil
	}
	plan, _ := buildShiftPlan(t)
	cached, _ := shiftPlanCache.LoadOrStore(t, plan)
	plan = cached.(*ShiftPlan)
	return plan, plan != nil
}
