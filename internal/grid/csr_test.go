package grid

import (
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

// TestCSRReverseIndex checks that the reverse index holds exactly the
// transposed forward edges (with multiplicity) on every kind.
func TestCSRReverseIndex(t *testing.T) {
	for _, kind := range Kinds() {
		for _, sz := range [][2]int{{2, 3}, {3, 4}, {5, 5}} {
			topo := MustNew(kind, sz[0], sz[1])
			csr := BuildCSR(topo)
			n := topo.Dims().N()
			if len(csr.Rev) != n*Degree || len(csr.RevOff) != n+1 {
				t.Fatalf("%v %dx%d: reverse index sized %d/%d", kind, sz[0], sz[1], len(csr.Rev), len(csr.RevOff))
			}
			// Count forward edges v->u and check they all appear reversed.
			fwd := map[[2]int]int{}
			for v := 0; v < n; v++ {
				for p := 0; p < Degree; p++ {
					fwd[[2]int{v, int(csr.Neighbors[v*Degree+p])}]++
				}
			}
			rev := map[[2]int]int{}
			for u := 0; u < n; u++ {
				for _, v := range csr.Rev[csr.RevOff[u]:csr.RevOff[u+1]] {
					rev[[2]int{int(v), u}]++
				}
			}
			if len(fwd) != len(rev) {
				t.Fatalf("%v %dx%d: %d forward vs %d reverse edge keys", kind, sz[0], sz[1], len(fwd), len(rev))
			}
			for e, c := range fwd {
				if rev[e] != c {
					t.Fatalf("%v %dx%d: edge %v has multiplicity %d forward, %d reverse", kind, sz[0], sz[1], e, c, rev[e])
				}
			}
		}
	}
}

// TestCSROfCaches pins the per-topology memoization: two topology values of
// equal kind and size share one index.
func TestCSROfCaches(t *testing.T) {
	a := CSROf(MustNew(KindTorusCordalis, 6, 4))
	b := CSROf(MustNew(KindTorusCordalis, 6, 4))
	if a != b {
		t.Error("CSROf returned distinct indexes for equal topology values")
	}
	c := CSROf(MustNew(KindTorusCordalis, 4, 6))
	if a == c {
		t.Error("CSROf shared an index across different dimensions")
	}
}

// TestBuildCSRAdj pins the general-graph constructor: offsets frame the
// adjacency rows, the reverse index transposes the forward one, and the
// regularity metadata (Uniform, MaxDegree) is computed correctly.
func TestBuildCSRAdj(t *testing.T) {
	// A small irregular digraph-shaped adjacency (vertex 3 is a sink).
	adj := [][]int{{1, 2}, {0, 2, 3}, {0}, {}}
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
	// Reverse index: who reads v?  readers[v] from the forward table.
	readers := map[int][]int{}
	for v, row := range adj {
		for _, u := range row {
			readers[u] = append(readers[u], v)
		}
	}
	for v := 0; v < c.N(); v++ {
		got := c.Rev[c.RevOff[v]:c.RevOff[v+1]]
		if len(got) != len(readers[v]) {
			t.Fatalf("vertex %d has %d reverse entries, want %d", v, len(got), len(readers[v]))
		}
		seen := map[int]bool{}
		for _, u := range got {
			seen[int(u)] = true
		}
		for _, u := range readers[v] {
			if !seen[u] {
				t.Fatalf("vertex %d reverse list misses reader %d", v, u)
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
