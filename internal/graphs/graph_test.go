package graphs

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/rng"
)

// Connected reports whether the graph is connected (vacuously true for the
// empty graph).
func (g *Graph) Connected() bool {
	if g.N() == 0 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range g.adj[v] {
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == g.N()
}

// FromTorus converts a torus topology into a Graph so the general-graph
// dynamics can be compared against the torus engine on identical inputs.
func FromTorus(t grid.Topology) *Graph {
	g := NewGraph(t.Dims().N())
	for v := 0; v < g.N(); v++ {
		for _, u := range grid.UniqueNeighbors(t, v) {
			g.AddEdge(v, u)
		}
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate
	g.AddEdge(2, 2) // self loop ignored
	g.AddEdge(1, 9) // out of range ignored
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge should be symmetric")
	}
	if g.HasEdge(2, 3) {
		t.Error("absent edge reported")
	}
	if g.Degree(0) != 1 || g.Degree(3) != 0 {
		t.Error("degrees wrong")
	}
}

// TestFromEdgesMatchesAddEdge: on random edge lists free of self-loops and
// duplicates, first in random order and orientation and then canonical
// (oriented, sorted), FromEdges builds the graph that AddEdge calls in list
// order build, neighbor order included, and the graph takes further edges
// as that one does.
func TestFromEdgesMatchesAddEdge(t *testing.T) {
	src := rng.New(27)
	for trial := 0; trial < 300; trial++ {
		n := 1 + src.Intn(40)
		seen := map[[2]int]bool{}
		var edges, canonical [][2]int
		for i := src.Intn(4 * n); i > 0; i-- {
			u, v := src.Intn(n), src.Intn(n)
			key := [2]int{min(u, v), max(u, v)}
			if u == v || seen[key] {
				continue
			}
			seen[key] = true
			edges = append(edges, [2]int{u, v})
			canonical = append(canonical, key)
		}
		slices.SortFunc(canonical, func(a, b [2]int) int {
			return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
		})
		for _, list := range [][][2]int{edges, canonical} {
			got, want := FromEdges(n, list), NewGraph(n)
			for _, e := range list {
				want.AddEdge(e[0], e[1])
			}
			u, v := src.Intn(n), src.Intn(n)
			got.AddEdge(u, v)
			want.AddEdge(u, v)
			for w := 0; w < n; w++ {
				if !slices.Equal(got.Neighbors(w), want.Neighbors(w)) {
					t.Fatalf("n=%d edges %v: vertex %d reads %v, AddEdge built %v", n, list, w, got.Neighbors(w), want.Neighbors(w))
				}
			}
		}
	}
}

func TestNewGraphPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraph(-1)
}

func TestRing(t *testing.T) {
	g, err := NewRing(6)
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 6 || !g.Connected() {
		t.Error("ring structure wrong")
	}
	for v := 0; v < 6; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("ring vertex %d has degree %d", v, g.Degree(v))
		}
	}
	if _, err := NewRing(2); err == nil {
		t.Error("ring of 2 should be rejected")
	}
}

func TestFromTorusMatchesTopology(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 6)
	g := FromTorus(topo)
	if g.N() != 30 {
		t.Fatalf("N = %d", g.N())
	}
	if g.EdgeCount() != 60 { // 4-regular simple graph
		t.Errorf("EdgeCount = %d, want 60", g.EdgeCount())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Errorf("vertex %d degree %d", v, g.Degree(v))
		}
	}
	if !g.Connected() {
		t.Error("torus graph should be connected")
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := NewBarabasiAlbert(200, 3, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 200 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Error("preferential attachment graph should be connected")
	}
	// Average degree approaches 2m; allow slack for the initial clique.
	avg := g.AverageDegree()
	if avg < 5 || avg > 8 {
		t.Errorf("average degree = %v, expected around 6", avg)
	}
	// Scale-free graphs have hubs: the maximum degree should far exceed the
	// average.
	if float64(g.MaxDegree()) < 2.5*avg {
		t.Errorf("max degree %d does not look like a hub (avg %.1f)", g.MaxDegree(), avg)
	}
	if _, err := NewBarabasiAlbert(5, 5, nil); err == nil {
		t.Error("n <= m should be rejected")
	}
	if _, err := NewBarabasiAlbert(10, 0, nil); err == nil {
		t.Error("m < 1 should be rejected")
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a, _ := NewBarabasiAlbert(100, 2, rng.New(5))
	b, _ := NewBarabasiAlbert(100, 2, rng.New(5))
	if a.EdgeCount() != b.EdgeCount() {
		t.Error("same seed should give the same graph")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := NewErdosRenyi(100, 0.1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	// Expected edges ~ 0.1 * 4950 = 495.
	if g.EdgeCount() < 350 || g.EdgeCount() > 650 {
		t.Errorf("edge count %d far from expectation 495", g.EdgeCount())
	}
	if _, err := NewErdosRenyi(10, 1.5, nil); err == nil {
		t.Error("p > 1 should be rejected")
	}
	empty, _ := NewErdosRenyi(10, 0, nil)
	if empty.EdgeCount() != 0 {
		t.Error("p = 0 should give no edges")
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := NewRandomRegular(50, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("vertex %d has degree %d, want 4", v, g.Degree(v))
		}
	}
	if _, err := NewRandomRegular(5, 3, nil); err == nil {
		t.Error("odd n*d should be rejected")
	}
	if _, err := NewRandomRegular(4, 4, nil); err == nil {
		t.Error("d >= n should be rejected")
	}
}

func TestColoringHelpers(t *testing.T) {
	c := NewColoring(5, 2)
	c.Set(3, 1)
	if c.At(3) != 1 || c.Count(2) != 4 || c.Count(1) != 1 || c.N() != 5 {
		t.Error("coloring helpers wrong")
	}
	d := c.Clone()
	if !c.Equal(d) {
		t.Error("clone should be equal")
	}
	d.Set(0, 1)
	if c.Equal(d) {
		t.Error("modified clone should differ")
	}
	if c.Equal(NewColoring(4, 2)) {
		t.Error("different sizes should not be equal")
	}
}

func TestConnectedProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 10 + int(nRaw)%50
		g, err := NewBarabasiAlbert(n, 2, rng.New(seed))
		if err != nil {
			return false
		}
		return g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
