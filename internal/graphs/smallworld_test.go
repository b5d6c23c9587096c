package graphs

import (
	"testing"

	"repro/internal/rng"
)

func TestWattsStrogatzLatticeLimit(t *testing.T) {
	// beta = 0 keeps the pristine ring lattice: every vertex has degree k
	// and the clustering coefficient is the lattice's 0.5 for k = 4.
	g, err := NewWattsStrogatz(60, 4, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("lattice vertex %d has degree %d", v, g.Degree(v))
		}
	}
	cc := ClusteringCoefficient(g)
	if cc < 0.45 || cc > 0.55 {
		t.Errorf("lattice clustering coefficient = %v, want ~0.5", cc)
	}
	if !g.Connected() {
		t.Error("ring lattice must be connected")
	}
}

func TestWattsStrogatzSmallWorldRegime(t *testing.T) {
	// Moderate rewiring shortens paths dramatically while keeping most of
	// the clustering — the defining small-world property.
	lattice, _ := NewWattsStrogatz(120, 6, 0, rng.New(2))
	small, err := NewWattsStrogatz(120, 6, 0.1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	latticeL := AveragePathLength(lattice)
	smallL := AveragePathLength(small)
	if smallL >= latticeL*0.8 {
		t.Errorf("rewiring should shorten paths: lattice %.2f vs small-world %.2f", latticeL, smallL)
	}
	latticeC := ClusteringCoefficient(lattice)
	smallC := ClusteringCoefficient(small)
	if smallC < latticeC*0.4 {
		t.Errorf("10%% rewiring should keep most clustering: %.3f vs %.3f", smallC, latticeC)
	}
}

func TestWattsStrogatzValidation(t *testing.T) {
	if _, err := NewWattsStrogatz(3, 2, 0.1, nil); err == nil {
		t.Error("n < 4 should be rejected")
	}
	if _, err := NewWattsStrogatz(20, 3, 0.1, nil); err == nil {
		t.Error("odd k should be rejected")
	}
	if _, err := NewWattsStrogatz(20, 20, 0.1, nil); err == nil {
		t.Error("k >= n should be rejected")
	}
	if _, err := NewWattsStrogatz(20, 4, 1.5, nil); err == nil {
		t.Error("beta > 1 should be rejected")
	}
}

func TestWattsStrogatzDeterministic(t *testing.T) {
	a, _ := NewWattsStrogatz(80, 4, 0.3, rng.New(9))
	b, _ := NewWattsStrogatz(80, 4, 0.3, rng.New(9))
	if a.EdgeCount() != b.EdgeCount() {
		t.Error("same seed should give the same graph")
	}
	for v := 0; v < a.N(); v++ {
		if a.Degree(v) != b.Degree(v) {
			t.Fatal("same seed should give the same degrees")
		}
	}
}

func TestClusteringCoefficientKnownGraphs(t *testing.T) {
	// A triangle has clustering 1.
	tri := NewGraph(3)
	tri.AddEdge(0, 1)
	tri.AddEdge(1, 2)
	tri.AddEdge(2, 0)
	if cc := ClusteringCoefficient(tri); cc != 1 {
		t.Errorf("triangle clustering = %v, want 1", cc)
	}
	// A star has clustering 0 (the center's neighbors are never adjacent).
	star := NewGraph(4)
	star.AddEdge(0, 1)
	star.AddEdge(0, 2)
	star.AddEdge(0, 3)
	if cc := ClusteringCoefficient(star); cc != 0 {
		t.Errorf("star clustering = %v, want 0", cc)
	}
	if ClusteringCoefficient(NewGraph(2)) != 0 {
		t.Error("graph without degree-2 vertices should have clustering 0")
	}
}

func TestAveragePathLengthKnownGraphs(t *testing.T) {
	ring, _ := NewRing(4)
	// Distances on C4: each vertex has two at distance 1 and one at 2 ->
	// mean 4/3.
	if got := AveragePathLength(ring); got < 1.32 || got > 1.35 {
		t.Errorf("C4 average path length = %v, want ~1.333", got)
	}
	if AveragePathLength(NewGraph(1)) != 0 {
		t.Error("single vertex has no paths")
	}
	// Disconnected pairs are ignored.
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if got := AveragePathLength(g); got != 1 {
		t.Errorf("two disjoint edges: average = %v, want 1", got)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.removeEdge(0, 1)
	if g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("edge should be gone in both directions")
	}
	if !g.HasEdge(1, 2) {
		t.Error("unrelated edge should remain")
	}
	// Removing an absent edge is a no-op.
	g.removeEdge(0, 2)
	if g.EdgeCount() != 1 {
		t.Error("EdgeCount after removals wrong")
	}
}

// ClusteringCoefficient returns the average local clustering coefficient of
// the graph (the fraction of a vertex's neighbor pairs that are themselves
// adjacent, averaged over vertices of degree at least two).
func ClusteringCoefficient(g *Graph) float64 {
	total, counted := 0.0, 0
	for v := 0; v < g.N(); v++ {
		ns := g.Neighbors(v)
		if len(ns) < 2 {
			continue
		}
		links := 0
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				if g.HasEdge(ns[i], ns[j]) {
					links++
				}
			}
		}
		pairs := len(ns) * (len(ns) - 1) / 2
		total += float64(links) / float64(pairs)
		counted++
	}
	if counted == 0 {
		return 0
	}
	return total / float64(counted)
}

// AveragePathLength returns the mean shortest-path length over all ordered
// vertex pairs, computed by BFS from every vertex.  Unreachable pairs are
// ignored; it returns 0 for graphs with fewer than two vertices.
func AveragePathLength(g *Graph) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	total, pairs := 0.0, 0
	dist := make([]int, n)
	queue := make([]int, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v != s && dist[v] > 0 {
				total += float64(dist[v])
				pairs++
			}
		}
	}
	if pairs == 0 {
		return 0
	}
	return total / float64(pairs)
}
