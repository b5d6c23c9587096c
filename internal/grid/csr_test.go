package grid

import (
	"strings"
	"testing"
)

// TestCSRMatchesTopologyNeighbors pins the forward table to the Topology
// interface on every kind, including the degenerate 2×n and m×2 tori where
// neighbor ports collapse onto duplicate vertices.
func TestCSRMatchesTopologyNeighbors(t *testing.T) {
	sizes := [][2]int{{2, 2}, {2, 5}, {5, 2}, {3, 3}, {4, 7}, {6, 6}}
	for _, kind := range Kinds() {
		for _, sz := range sizes {
			topo := MustNew(kind, sz[0], sz[1])
			csr := BuildCSR(topo)
			n := topo.Dims().N()
			if got := len(csr.Neighbors); got != n*Degree {
				t.Fatalf("%v %dx%d: forward table has %d entries, want %d", kind, sz[0], sz[1], got, n*Degree)
			}
			var buf [Degree]int
			for v := 0; v < n; v++ {
				want := topo.Neighbors(v, buf[:0])
				for p := 0; p < Degree; p++ {
					if int(csr.Neighbors[v*Degree+p]) != want[p] {
						t.Fatalf("%v %dx%d: vertex %d port %d = %d, want %d",
							kind, sz[0], sz[1], v, p, csr.Neighbors[v*Degree+p], want[p])
					}
				}
			}
		}
	}
}

// TestBuildCSRAdj pins the general-graph constructor: offsets frame the
// adjacency rows and the regularity metadata (Uniform, MaxDegree) is
// computed correctly.
func TestBuildCSRAdj(t *testing.T) {
	// A small irregular undirected adjacency: a triangle 0-1-2 with a
	// pendant vertex 3 on 1.
	adj := [][]int{{1, 2}, {0, 2, 3}, {0, 1}, {1}}
	c := BuildCSRAdj(adj)
	if c.N() != 4 {
		t.Fatalf("N = %d, want 4", c.N())
	}
	if c.Dims() != (Dims{Rows: 1, Cols: 4}) {
		t.Fatalf("Dims = %v, want the 1x4 line", c.Dims())
	}
	if c.Uniform() != 0 {
		t.Fatalf("irregular index reported Uniform = %d", c.Uniform())
	}
	if c.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", c.MaxDegree())
	}
	for v, row := range adj {
		if deg := int(c.Off[v+1] - c.Off[v]); deg != len(row) {
			t.Fatalf("degree(%d) = %d, want %d", v, deg, len(row))
		}
		got := c.Neighbors[c.Off[v]:c.Off[v+1]]
		for i, u := range row {
			if int(got[i]) != u {
				t.Fatalf("vertex %d neighbor %d: %d, want %d", v, i, got[i], u)
			}
		}
	}

	// A regular adjacency reports its uniform degree.
	ring := [][]int{{1, 2}, {2, 0}, {0, 1}}
	if got := BuildCSRAdj(ring).Uniform(); got != 2 {
		t.Fatalf("ring Uniform = %d, want 2", got)
	}
	// Torus construction carries the dense-degree metadata.
	torus := BuildCSR(MustNew(KindToroidalMesh, 3, 3))
	if torus.Uniform() != Degree || torus.MaxDegree() != Degree {
		t.Fatalf("torus metadata: uniform %d maxdeg %d", torus.Uniform(), torus.MaxDegree())
	}
	if int(torus.Off[5]) != 5*Degree {
		t.Fatal("torus offsets must frame the dense table")
	}
}

// oneWayTopology is a toroidal mesh whose vertex 0 reads, through its right
// port, a vertex that does not read it back.
type oneWayTopology struct{ Topology }

func (oneWayTopology) Name() string { return "one-way-mesh" }

func (o oneWayTopology) Neighbors(v int, buf []int) []int {
	ns := o.Topology.Neighbors(v, buf)
	if v == 0 {
		ns[3] = o.Dims().IndexRC(2, 2)
	}
	return ns
}

// TestBuildCSRRejectsOneWayTopology pins Topology's symmetry contract:
// BuildCSR panics, naming the topology, on a single one-way port.
func TestBuildCSRRejectsOneWayTopology(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "one-way-mesh") || !strings.Contains(msg, "not symmetric") {
			t.Fatalf("BuildCSR panic = %q, want one naming the asymmetric topology", msg)
		}
	}()
	BuildCSR(oneWayTopology{MustNew(KindToroidalMesh, 5, 5)})
}
