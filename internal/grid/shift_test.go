package grid

import (
	"fmt"
	"testing"
)

// TestShiftPlanMatchesNeighbors verifies on every built-in topology and a
// spread of sizes (including 2×n degenerates and non-word-multiple rows)
// that the shift decomposition reproduces the topology's neighbor function
// exactly: rotation for unpatched lanes, patch list for the rest.
func TestShiftPlanMatchesNeighbors(t *testing.T) {
	sizes := [][2]int{{2, 2}, {2, 7}, {7, 2}, {3, 3}, {4, 6}, {5, 13}, {9, 9}, {3, 67}}
	for _, kind := range Kinds() {
		for _, sz := range sizes {
			topo := MustNew(kind, sz[0], sz[1])
			plan, ok := BuildShiftPlan(BuildCSR(topo))
			if !ok {
				t.Fatalf("%v %dx%d: expected shift-regular", kind, sz[0], sz[1])
			}
			d := topo.Dims()
			n := d.N()
			var buf [Degree]int
			for p := 0; p < Degree; p++ {
				port := plan.Ports[p]
				// Reconstruct the port's neighbor map: rotation, then patches.
				got := make([]int, n)
				for v := 0; v < n; v++ {
					got[v] = (v + port.Shift) % n
				}
				for i, db := range port.FixDst {
					got[db] = int(port.FixSrc[i])
				}
				for v := 0; v < n; v++ {
					want := topo.Neighbors(v, buf[:0])[p]
					if got[v] != want {
						t.Fatalf("%v %dx%d port %d: plan says neighbor(%d)=%d, topology says %d",
							kind, sz[0], sz[1], p, v, got[v], want)
					}
				}
			}
		}
	}
}

// TestShiftPlanFixupShapes pins the structural expectations: the toroidal
// mesh patches only the row wrap of its left/right ports, the torus cordalis
// is a pure rotation group (its spiral makes left/right exactly ∓1 on the
// flat order), and the serpentinus patches only the column spiral of its
// up/down ports.
func TestShiftPlanFixupShapes(t *testing.T) {
	m, n := 6, 9
	cases := []struct {
		kind Kind
		want [Degree]int // fixups per port (up, down, left, right)
	}{
		{KindToroidalMesh, [Degree]int{0, 0, m, m}},
		{KindTorusCordalis, [Degree]int{0, 0, 0, 0}},
		{KindTorusSerpentinus, [Degree]int{n, n, 0, 0}},
	}
	for _, c := range cases {
		plan, ok := BuildShiftPlan(BuildCSR(MustNew(c.kind, m, n)))
		if !ok {
			t.Fatalf("%v: expected shift-regular", c.kind)
		}
		for p := 0; p < Degree; p++ {
			if got := len(plan.Ports[p].FixDst); got != c.want[p] {
				t.Errorf("%v port %d: %d fixups, want %d", c.kind, p, got, c.want[p])
			}
		}
	}
}

// irregularTopology is a symmetric 4-regular topology that is not
// shift-regular: it keeps a torus's up/down ports but replaces left and
// right by two far-jumping involutions, v ↦ (n-1-v) and v ↦ (n/2-1-v)
// mod n.  Each involution's neighbor offset takes every value at most
// twice, far beyond the fixup budget of any single rotation.
type irregularTopology struct{ Topology }

func (i irregularTopology) Neighbors(v int, buf []int) []int {
	ns := i.Topology.Neighbors(v, buf)
	n := i.Dims().N()
	ns[2] = n - 1 - v
	ns[3] = (n/2 - 1 - v + n) % n
	return ns
}

func TestShiftPlanRejectsIrregularTopology(t *testing.T) {
	topo := irregularTopology{MustNew(KindToroidalMesh, 8, 8)}
	if _, ok := BuildShiftPlan(BuildCSR(topo)); ok {
		t.Fatal("irregular topology must not be shift-regular")
	}
}

// histogramPort is the reference probe: a full map histogram of the
// port's offsets, its mode with ties toward the smallest offset, and the
// vertices that depart from it.
func histogramPort(d Dims, neighbors []int32, port int) (ShiftPort, bool) {
	n := d.N()
	hist := make(map[int]int)
	for v := 0; v < n; v++ {
		hist[(int(neighbors[v*Degree+port])-v+n)%n]++
	}
	shift, best := 0, -1
	for off, count := range hist {
		if count > best || (count == best && off < shift) {
			shift, best = off, count
		}
	}
	out := ShiftPort{Shift: shift}
	for v := 0; v < n; v++ {
		if u := int(neighbors[v*Degree+port]); (v+shift)%n != u {
			out.FixDst = append(out.FixDst, int32(v))
			out.FixSrc = append(out.FixSrc, int32(u))
		}
	}
	if len(out.FixDst) > maxShiftFixups(d) {
		return ShiftPort{}, false
	}
	return out, true
}

// TestProbeShiftPortMatchesHistogram pins the probe's shift, patches and
// refusals to histogramPort on every torus kind, and on its irregular
// variant, at the sizes of TestShiftPlanMatchesNeighbors.
func TestProbeShiftPortMatchesHistogram(t *testing.T) {
	sizes := [][2]int{{2, 2}, {2, 7}, {7, 2}, {3, 3}, {4, 6}, {5, 13}, {9, 9}, {3, 67}}
	refused := 0
	for _, kind := range Kinds() {
		for _, sz := range sizes {
			topo := MustNew(kind, sz[0], sz[1])
			for _, tp := range []Topology{topo, irregularTopology{topo}} {
				c := BuildCSR(tp)
				for p := 0; p < Degree; p++ {
					got, gotOK := probeShiftPort(c.Dims(), c.Neighbors, p)
					want, wantOK := histogramPort(c.Dims(), c.Neighbors, p)
					if gotOK != wantOK || got.Shift != want.Shift || fmt.Sprint(got.FixDst, got.FixSrc) != fmt.Sprint(want.FixDst, want.FixSrc) {
						t.Fatalf("%s %v port %d: probe (%v, %+v), histogram (%v, %+v)", tp.Name(), c.Dims(), p, gotOK, got, wantOK, want)
					}
					if !wantOK {
						refused++
					}
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no port was refused; the refusal path is untested")
	}
}
