package graphs

import (
	"fmt"

	"repro/internal/rng"
)

// NewWattsStrogatz generates a small-world graph: a ring lattice on n
// vertices where every vertex is connected to its k nearest neighbors (k
// even), with each edge rewired to a uniformly random endpoint with
// probability beta.  beta = 0 gives the regular ring lattice, beta = 1 an
// essentially random graph; intermediate values give the high-clustering /
// short-path "small world" regime the social-network literature referenced
// by the paper studies.
func NewWattsStrogatz(n, k int, beta float64, src *rng.Source) (*Graph, error) {
	if n < 4 || k < 2 || k%2 != 0 || k >= n {
		return nil, fmt.Errorf("graphs: Watts–Strogatz requires n >= 4 and even 2 <= k < n, got n=%d k=%d", n, k)
	}
	if beta < 0 || beta > 1 {
		return nil, fmt.Errorf("graphs: rewiring probability %v outside [0,1]", beta)
	}
	if src == nil {
		src = rng.New(1)
	}
	g := NewGraph(n)
	// Ring lattice: connect every vertex to its k/2 clockwise neighbors.
	for v := 0; v < n; v++ {
		for d := 1; d <= k/2; d++ {
			g.AddEdge(v, (v+d)%n)
		}
	}
	// Rewire each original clockwise edge with probability beta.
	for v := 0; v < n; v++ {
		for d := 1; d <= k/2; d++ {
			if src.Float64() >= beta {
				continue
			}
			u := (v + d) % n
			// Pick a new endpoint avoiding self-loops and duplicates; keep
			// the old edge if no candidate is found quickly.
			for attempt := 0; attempt < 32; attempt++ {
				w := src.Intn(n)
				if w == v || g.HasEdge(v, w) {
					continue
				}
				g.removeEdge(v, u)
				g.AddEdge(v, w)
				break
			}
		}
	}
	return g, nil
}

// removeEdge deletes the undirected edge {u, v} if present.
func (g *Graph) removeEdge(u, v int) {
	g.adj[u] = removeValue(g.adj[u], v)
	g.adj[v] = removeValue(g.adj[v], u)
	g.invalidate()
}

func removeValue(xs []int, v int) []int {
	out := xs[:0]
	for _, x := range xs {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
