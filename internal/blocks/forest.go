package blocks

import (
	"repro/internal/color"
	"repro/internal/grid"
)

// IsForest reports whether the subgraph induced by the vertices of color k
// is acyclic (a forest) on the simple graph.  The tight constructions
// (Theorem 2, 4, 6) require every non-k color class to be a forest.
func IsForest(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	n := c.N()
	in := make([]bool, n)
	for v := 0; v < n; v++ {
		in[v] = c.At(v) == k
	}
	return isForestSubgraph(topo, in)
}

// isForestSubgraph reports whether the subgraph induced on the marked
// vertices is acyclic, using the |E| < |V| characterization per connected
// component (equivalently, union-find over induced edges).
func isForestSubgraph(topo grid.Topology, in []bool) bool {
	n := len(in)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for v := 0; v < n; v++ {
		if !in[v] {
			continue
		}
		for _, u := range grid.UniqueNeighbors(topo, v) {
			if !in[u] || u < v {
				continue
			}
			ru, rv := find(u), find(v)
			if ru == rv {
				return false // the edge closes a cycle
			}
			parent[ru] = rv
		}
	}
	return true
}
