package grid

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
// immutable after construction; an engine probes its own once (see
// BuildShiftPlan) and keeps it.
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
// the smallest offset so the plan is deterministic.  The tally holds each
// distinct offset once: a port with more than maxShiftFixups+1 of them
// departs from any rotation at more than maxShiftFixups vertices, so the
// probe refuses it there.
func probeShiftPort(d Dims, neighbors []int32, port int) (ShiftPort, bool) {
	n := d.N()
	var offs, counts []int
vertices:
	for v := 0; v < n; v++ {
		off := (int(neighbors[v*Degree+port]) - v + n) % n
		for i, o := range offs {
			if o == off {
				counts[i]++
				continue vertices
			}
		}
		if len(offs) > maxShiftFixups(d) {
			return ShiftPort{}, false
		}
		offs, counts = append(offs, off), append(counts, 1)
	}
	shift, best := 0, -1
	for i, off := range offs {
		if counts[i] > best || (counts[i] == best && off < shift) {
			shift, best = off, counts[i]
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

// BuildShiftPlan returns the shift decomposition of a torus index's
// neighbor geometry (c comes from BuildCSR), or ok=false when it is not
// shift-regular: some port does not decompose into a flat rotation plus at
// most Rows+Cols border patches.  The probe reads every vertex's row, so
// callers derive the plan only once a run qualifies for the bitplane tier
// on everything else.
func BuildShiftPlan(c *CSR) (*ShiftPlan, bool) {
	plan := &ShiftPlan{dims: c.Dims()}
	for p := 0; p < Degree; p++ {
		port, ok := probeShiftPort(c.Dims(), c.Neighbors, p)
		if !ok {
			return nil, false
		}
		plan.Ports[p] = port
	}
	return plan, true
}
