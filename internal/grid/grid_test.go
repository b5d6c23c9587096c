package grid

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"testing/quick"
)

func TestNewDimsValidation(t *testing.T) {
	if _, err := NewDims(1, 5); err == nil {
		t.Error("expected error for rows < 2")
	}
	if _, err := NewDims(5, 1); err == nil {
		t.Error("expected error for cols < 2")
	}
	d, err := NewDims(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows != 3 || d.Cols != 4 || d.N() != 12 {
		t.Errorf("unexpected dims %+v", d)
	}
}

// TestNewDimsRejectsOverflow: lattices whose vertex count overflows int,
// or whose adjacency overflows the int32 CSR offsets, get ErrTooLarge
// instead of a wrapped-around N.
func TestNewDimsRejectsOverflow(t *testing.T) {
	// The overflow cases are chosen by word size: a side of 2^(IntSize/2)
	// (2^32 at 64 bits, 2^16 at 32) and the smallest square side whose
	// vertex count overflows int (3037000500 at 64 bits, 46341 at 32).
	half := 1 << (strconv.IntSize / 2)
	side := int(math.Sqrt(float64(math.MaxInt))) + 1
	cases := []struct {
		rows, cols int
		ok         bool
	}{
		{half, half, false},
		{math.MaxInt, 2, false},
		{2, math.MaxInt/2 + 1, false},
		{side, side, false},
		{1 << 16, 1 << 15, false},
		{23171, 23171, false},
		{23170, 23170, true},
		{2, math.MaxInt32 / Degree / 2, true},
		{4096, 4096, true},
	}
	for _, c := range cases {
		d, err := NewDims(c.rows, c.cols)
		if c.ok {
			if err != nil || d.N() != c.rows*c.cols {
				t.Errorf("NewDims(%d, %d) = %+v, %v; want a valid lattice", c.rows, c.cols, d, err)
			}
			continue
		}
		if !errors.Is(err, ErrTooLarge) {
			t.Errorf("NewDims(%d, %d) err = %v, want ErrTooLarge", c.rows, c.cols, err)
		}
	}
	if _, err := New(KindToroidalMesh, half, half); !errors.Is(err, ErrTooLarge) {
		t.Errorf("New on a %d x %d mesh: err = %v, want ErrTooLarge", half, half, err)
	}
}

func TestMustDimsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDims should panic on invalid size")
		}
	}()
	MustDims(0, 0)
}

func TestIndexCoordRoundTrip(t *testing.T) {
	d := MustDims(6, 9)
	for v := 0; v < d.N(); v++ {
		c := d.Coord(v)
		if c.Row < 0 || c.Row >= d.Rows || c.Col < 0 || c.Col >= d.Cols {
			t.Fatalf("Coord(%d) = %v outside lattice", v, c)
		}
		if got := d.IndexRC(c.Row, c.Col); got != v {
			t.Fatalf("IndexRC(Coord(%d)) = %d", v, got)
		}
	}
}

func TestDimsMin(t *testing.T) {
	if MustDims(3, 7).Min() != 3 || MustDims(7, 3).Min() != 3 || MustDims(5, 5).Min() != 5 {
		t.Error("Dims.Min wrong")
	}
}

// TestKindStringsAndParse: every kind's String is a registered name that
// resolves back to that kind, as do the short aliases.
func TestKindStringsAndParse(t *testing.T) {
	names := map[string]Kind{
		"mesh": KindToroidalMesh, "cordalis": KindTorusCordalis, "serpentinus": KindTorusSerpentinus,
	}
	for _, k := range Kinds() {
		names[k.String()] = k
	}
	for name, want := range names {
		topo, err := ByName(name, 3, 3)
		if err != nil || topo.Kind() != want {
			t.Errorf("ByName(%q) = %v, %v; want kind %v", name, topo, err, want)
		}
	}
	if _, err := ByName("hypercube", 3, 3); err == nil {
		t.Error("expected error for unknown topology name")
	}
	if Kind(99).String() == "" {
		t.Error("unknown Kind should still render")
	}
}

func TestNewTopology(t *testing.T) {
	for _, k := range Kinds() {
		topo, err := New(k, 5, 7)
		if err != nil {
			t.Fatal(err)
		}
		if topo.Kind() != k {
			t.Errorf("Kind = %v, want %v", topo.Kind(), k)
		}
		if topo.Name() != k.String() {
			t.Errorf("Name = %q, want %q", topo.Name(), k.String())
		}
		if topo.Dims() != MustDims(5, 7) {
			t.Errorf("Dims = %v", topo.Dims())
		}
	}
	if _, err := New(Kind(42), 5, 5); err == nil {
		t.Error("expected error for unknown kind")
	}
	if _, err := New(KindToroidalMesh, 1, 5); err == nil {
		t.Error("expected error for bad size")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew should panic on invalid size")
		}
	}()
	MustNew(KindToroidalMesh, 0, 3)
}

// Every vertex has exactly four neighbor ports, and every port points to a
// valid vertex.
func TestDegreeAndRange(t *testing.T) {
	for _, k := range Kinds() {
		for _, size := range [][2]int{{2, 2}, {2, 5}, {5, 2}, {3, 3}, {4, 6}, {7, 5}} {
			topo := MustNew(k, size[0], size[1])
			n := topo.Dims().N()
			for v := 0; v < n; v++ {
				ns := topo.Neighbors(v, nil)
				if len(ns) != Degree {
					t.Fatalf("%v %dx%d: vertex %d has %d ports", k, size[0], size[1], v, len(ns))
				}
				for _, u := range ns {
					if u < 0 || u >= n {
						t.Fatalf("%v %dx%d: vertex %d has out-of-range neighbor %d", k, size[0], size[1], v, u)
					}
					if u == v {
						t.Fatalf("%v %dx%d: vertex %d is its own neighbor", k, size[0], size[1], v)
					}
				}
			}
		}
	}
}

// Adjacency must be symmetric as a multiset: u appears in N(v) exactly as
// many times as v appears in N(u).
func TestNeighborSymmetry(t *testing.T) {
	for _, k := range Kinds() {
		for _, size := range [][2]int{{2, 2}, {2, 4}, {4, 2}, {3, 5}, {5, 5}, {6, 4}} {
			topo := MustNew(k, size[0], size[1])
			n := topo.Dims().N()
			count := func(list []int, x int) int {
				c := 0
				for _, y := range list {
					if y == x {
						c++
					}
				}
				return c
			}
			for v := 0; v < n; v++ {
				nv := topo.Neighbors(v, nil)
				for _, u := range nv {
					nu := topo.Neighbors(u, nil)
					if count(nv, u) != count(nu, v) {
						t.Fatalf("%v %dx%d: asymmetric adjacency between %d and %d (%v vs %v)",
							k, size[0], size[1], v, u, nv, nu)
					}
				}
			}
		}
	}
}

// Neighbors and NeighborCoords must agree.
func TestNeighborsMatchCoords(t *testing.T) {
	for _, k := range Kinds() {
		topo := MustNew(k, 5, 6)
		d := topo.Dims()
		for v := 0; v < d.N(); v++ {
			byIndex := topo.Neighbors(v, nil)
			coords := topo.NeighborCoords(d.Coord(v), nil)
			if len(coords) != len(byIndex) {
				t.Fatalf("length mismatch for %v vertex %d", k, v)
			}
			for i := range coords {
				if got := d.IndexRC(coords[i].Row, coords[i].Col); got != byIndex[i] {
					t.Fatalf("%v vertex %d port %d: coord %v (=%d) vs index %d",
						k, v, i, coords[i], got, byIndex[i])
				}
			}
		}
	}
}

func TestNeighborsBufferReuse(t *testing.T) {
	topo := MustNew(KindToroidalMesh, 4, 4)
	buf := make([]int, 0, Degree)
	first := topo.Neighbors(0, buf)
	second := topo.Neighbors(5, buf)
	if len(first) != 4 || len(second) != 4 {
		t.Fatal("buffered Neighbors returned wrong lengths")
	}
	// Reusing the same backing array is expected; the caller controls it.
	if &first[0] != &second[0] {
		t.Log("buffer was not reused (allowed, but unexpected)")
	}
}

func TestToroidalMeshSpecificNeighbors(t *testing.T) {
	topo := MustNew(KindToroidalMesh, 5, 5).(ToroidalMesh)
	d := topo.Dims()
	// Interior vertex (2,2).
	got := topo.NeighborCoords(Coord{2, 2}, nil)
	want := []Coord{{1, 2}, {3, 2}, {2, 1}, {2, 3}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mesh (2,2) port %d = %v, want %v", i, got[i], want[i])
		}
	}
	// Corner (0,0) wraps to row 4 and column 4.
	got = topo.NeighborCoords(Coord{0, 0}, nil)
	want = []Coord{{4, 0}, {1, 0}, {0, 4}, {0, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mesh (0,0) port %d = %v, want %v", i, got[i], want[i])
		}
	}
	_ = d
}

func TestCordalisSpiralNeighbors(t *testing.T) {
	topo := MustNew(KindTorusCordalis, 4, 5).(TorusCordalis)
	// Right neighbor of the last vertex of row 1 is the first vertex of row 2.
	got := topo.NeighborCoords(Coord{1, 4}, nil)
	if got[3] != (Coord{2, 0}) {
		t.Errorf("cordalis right of (1,4) = %v, want (2,0)", got[3])
	}
	// Left neighbor of the first vertex of row 2 is the last vertex of row 1.
	got = topo.NeighborCoords(Coord{2, 0}, nil)
	if got[2] != (Coord{1, 4}) {
		t.Errorf("cordalis left of (2,0) = %v, want (1,4)", got[2])
	}
	// The last vertex of the last row wraps to (0,0).
	got = topo.NeighborCoords(Coord{3, 4}, nil)
	if got[3] != (Coord{0, 0}) {
		t.Errorf("cordalis right of (3,4) = %v, want (0,0)", got[3])
	}
	// Vertical edges are mesh-like.
	if got[0] != (Coord{2, 4}) || got[1] != (Coord{0, 4}) {
		t.Errorf("cordalis vertical neighbors of (3,4) = %v,%v", got[0], got[1])
	}
}

func TestSerpentinusSpiralNeighbors(t *testing.T) {
	topo := MustNew(KindTorusSerpentinus, 4, 5).(TorusSerpentinus)
	// Down neighbor of the last vertex of column 2 is the first vertex of column 1.
	got := topo.NeighborCoords(Coord{3, 2}, nil)
	if got[1] != (Coord{0, 1}) {
		t.Errorf("serpentinus down of (3,2) = %v, want (0,1)", got[1])
	}
	// Up neighbor of the first vertex of column 1 is the last vertex of column 2.
	got = topo.NeighborCoords(Coord{0, 1}, nil)
	if got[0] != (Coord{3, 2}) {
		t.Errorf("serpentinus up of (0,1) = %v, want (3,2)", got[0])
	}
	// Column 0 bottom wraps to column n-1 top.
	got = topo.NeighborCoords(Coord{3, 0}, nil)
	if got[1] != (Coord{0, 4}) {
		t.Errorf("serpentinus down of (3,0) = %v, want (0,4)", got[1])
	}
	// Horizontal edges follow the cordalis spiral.
	got = topo.NeighborCoords(Coord{2, 4}, nil)
	if got[3] != (Coord{3, 0}) {
		t.Errorf("serpentinus right of (2,4) = %v, want (3,0)", got[3])
	}
}

// Following the "right" port from (0,0) must visit all vertices exactly once
// in the cordalis and serpentinus (single horizontal spiral), while in the
// mesh it only visits one row.
func TestHorizontalSpiralStructure(t *testing.T) {
	const m, n = 4, 5
	walk := func(topo Topology) int {
		d := topo.Dims()
		visited := make(map[int]bool)
		v := 0
		for !visited[v] {
			visited[v] = true
			v = topo.Neighbors(v, nil)[3] // right port
		}
		_ = d
		return len(visited)
	}
	if got := walk(MustNew(KindToroidalMesh, m, n)); got != n {
		t.Errorf("mesh right-walk visited %d vertices, want %d", got, n)
	}
	if got := walk(MustNew(KindTorusCordalis, m, n)); got != m*n {
		t.Errorf("cordalis right-walk visited %d vertices, want %d", got, m*n)
	}
	if got := walk(MustNew(KindTorusSerpentinus, m, n)); got != m*n {
		t.Errorf("serpentinus right-walk visited %d vertices, want %d", got, m*n)
	}
}

// Following the "down" port must visit one column in the mesh and cordalis
// but all vertices in the serpentinus (single vertical spiral).
func TestVerticalSpiralStructure(t *testing.T) {
	const m, n = 4, 5
	walk := func(topo Topology) int {
		visited := make(map[int]bool)
		v := 0
		for !visited[v] {
			visited[v] = true
			v = topo.Neighbors(v, nil)[1] // down port
		}
		return len(visited)
	}
	if got := walk(MustNew(KindToroidalMesh, m, n)); got != m {
		t.Errorf("mesh down-walk visited %d vertices, want %d", got, m)
	}
	if got := walk(MustNew(KindTorusCordalis, m, n)); got != m {
		t.Errorf("cordalis down-walk visited %d vertices, want %d", got, m)
	}
	if got := walk(MustNew(KindTorusSerpentinus, m, n)); got != m*n {
		t.Errorf("serpentinus down-walk visited %d vertices, want %d", got, m*n)
	}
}

func TestEdgeCount(t *testing.T) {
	// For m,n >= 3 all three topologies are simple 4-regular graphs, hence
	// have exactly 2*m*n edges.
	for _, k := range Kinds() {
		for _, size := range [][2]int{{3, 3}, {4, 5}, {6, 6}} {
			topo := MustNew(k, size[0], size[1])
			want := 2 * size[0] * size[1]
			got := 0
			for v := 0; v < topo.Dims().N(); v++ {
				for _, u := range UniqueNeighbors(topo, v) {
					if u > v {
						got++
					}
				}
			}
			if got != want {
				t.Errorf("%v %v: edge count = %d, want %d", k, size, got, want)
			}
		}
	}
}

func TestUniqueNeighborsOnDegenerateTorus(t *testing.T) {
	// On a 2xN mesh the up and down ports of a vertex coincide.
	topo := MustNew(KindToroidalMesh, 2, 5)
	u := UniqueNeighbors(topo, 0)
	if len(u) != 3 {
		t.Errorf("2x5 mesh: UniqueNeighbors(0) = %v, want 3 entries", u)
	}
	// On a 3xN mesh all four are distinct.
	topo = MustNew(KindToroidalMesh, 3, 5)
	if got := UniqueNeighbors(topo, 0); len(got) != 4 {
		t.Errorf("3x5 mesh: UniqueNeighbors(0) = %v, want 4 entries", got)
	}
}

// Property: in every topology, every vertex is reachable from vertex 0
// (connectivity), checked on small random sizes.
func TestConnectivityProperty(t *testing.T) {
	f := func(kindSeed, rowSeed, colSeed uint8) bool {
		kind := Kinds()[int(kindSeed)%3]
		rows := 2 + int(rowSeed)%7
		cols := 2 + int(colSeed)%7
		topo := MustNew(kind, rows, cols)
		n := topo.Dims().N()
		seen := make([]bool, n)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range topo.Neighbors(v, nil) {
				if !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		return count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCoordString(t *testing.T) {
	if (Coord{1, 2}).String() != "(1,2)" {
		t.Error("Coord.String format changed")
	}
	if MustDims(3, 4).String() != "3x4" {
		t.Error("Dims.String format changed")
	}
}
