package grid

import (
	"fmt"
	"reflect"
	"sync"
)

// CSR is a compressed sparse row adjacency index, the flat form the
// simulation engine iterates over.  Two constructions exist: BuildCSR for
// the Degree-regular torus topologies (see CSROf for the per-topology cache)
// and BuildCSRAdj for arbitrary adjacency lists — the seam that lets one
// engine run over any substrate, torus or not.
//
// The forward table lists the neighbors of vertex v in
// Neighbors[Off[v]:Off[v+1]].  When the index is degree-regular
// (Uniform() > 0) the slice is additionally dense — vertex v's neighbors
// occupy Neighbors[Uniform()*v : Uniform()*(v+1)] — which is what the
// engine's unrolled torus loops rely on.  The order of a torus row is the
// up, down, left, right order Topology.Neighbors produces; a general row
// preserves the adjacency-list order it was built from.
//
// The reverse index answers the frontier stepper's question — "when v
// changes color, who has to be re-evaluated next round?" — as the vertices
// u with v ∈ N(u): they occupy Rev[RevOff[v]:RevOff[v+1]].  On undirected
// substrates the reverse lists coincide with the forward ones as sets, but
// the index is built generically so externally registered, possibly
// asymmetric topologies stay correct.  Reverse lists may contain duplicates
// when a torus dimension equals 2 (the four neighbor ports collapse);
// consumers must be idempotent under duplicate delivery, which the
// frontier's epoch marks are.
//
// A CSR is immutable after construction and safe for concurrent use.
type CSR struct {
	dims Dims
	// Neighbors is the forward table; vertex v's neighbors occupy
	// Neighbors[Off[v]:Off[v+1]].
	Neighbors []int32
	// Off frames each vertex's forward row, len n+1.
	Off []int32
	// RevOff and Rev form the reverse (influence) index: the vertices whose
	// neighborhoods contain v are Rev[RevOff[v]:RevOff[v+1]].
	RevOff []int32
	Rev    []int32

	uniform int
	maxDeg  int
}

// Dims returns the vertex layout the index was built for.  Torus indexes
// carry their lattice dimensions; general-graph indexes use the degenerate
// 1×n layout (a flat vertex line), which exists only so colorings can be
// sized and matched against the index.
func (c *CSR) Dims() Dims { return c.dims }

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.Off) - 1 }

// Uniform returns the common vertex degree when every vertex has exactly
// the same number of forward neighbors, and 0 for irregular indexes.  A
// positive Uniform licenses the engine's dense unrolled loops.
func (c *CSR) Uniform() int { return c.uniform }

// MaxDegree returns the largest forward-neighbor count of any vertex (0 for
// the empty index).  The engine sizes its per-run scratch buffers with it.
func (c *CSR) MaxDegree() int { return c.maxDeg }

// BuildCSR computes the CSR index of a torus topology from scratch.  Prefer
// CSROf, which caches the result per topology value.
func BuildCSR(t Topology) *CSR {
	d := t.Dims()
	n := d.N()
	c := &CSR{
		dims:      d,
		Neighbors: make([]int32, 0, n*Degree),
		Off:       make([]int32, n+1),
		uniform:   Degree,
		maxDeg:    Degree,
	}
	var buf [Degree]int
	for v := 0; v < n; v++ {
		for _, u := range t.Neighbors(v, buf[:0]) {
			c.Neighbors = append(c.Neighbors, int32(u))
		}
		c.Off[v+1] = int32(len(c.Neighbors))
	}
	if n == 0 {
		c.maxDeg = 0
	}
	c.buildReverse()
	return c
}

// BuildCSRAdj computes the CSR index of an arbitrary adjacency-list graph:
// adj[v] lists the (directed) neighbors vertex v reads each round.  It is
// the general-graph entry into the engine; undirected graphs simply list
// every edge in both rows.  The index gets the degenerate 1×n vertex layout
// (see Dims).
func BuildCSRAdj(adj [][]int) *CSR {
	n := len(adj)
	total := 0
	for _, row := range adj {
		total += len(row)
	}
	c := &CSR{
		dims:      Dims{Rows: 1, Cols: n},
		Neighbors: make([]int32, 0, total),
		Off:       make([]int32, n+1),
	}
	uniform := -1
	for v, row := range adj {
		for _, u := range row {
			if u < 0 || u >= n {
				panic(fmt.Sprintf("grid: BuildCSRAdj neighbor %d of vertex %d outside [0,%d)", u, v, n))
			}
			c.Neighbors = append(c.Neighbors, int32(u))
		}
		c.Off[v+1] = int32(len(c.Neighbors))
		if len(row) > c.maxDeg {
			c.maxDeg = len(row)
		}
		switch uniform {
		case -1:
			uniform = len(row)
		case len(row):
		default:
			uniform = 0
		}
	}
	if uniform > 0 {
		c.uniform = uniform
	}
	c.buildReverse()
	return c
}

// buildReverse fills RevOff/Rev by a counting sort of the transposed
// forward edge list.
func (c *CSR) buildReverse() {
	n := c.N()
	c.RevOff = make([]int32, n+1)
	c.Rev = make([]int32, len(c.Neighbors))
	// First in-degrees...
	for _, u := range c.Neighbors {
		c.RevOff[u+1]++
	}
	for v := 0; v < n; v++ {
		c.RevOff[v+1] += c.RevOff[v]
	}
	// ...then placement, using a moving cursor per target vertex.
	cursor := make([]int32, n)
	copy(cursor, c.RevOff[:n])
	for v := 0; v < n; v++ {
		for _, u := range c.Neighbors[c.Off[v]:c.Off[v+1]] {
			c.Rev[cursor[u]] = int32(v)
			cursor[u]++
		}
	}
}

// csrCache memoizes CSR indexes per Topology value.  The built-in tori are
// tiny comparable structs, so topologies of equal kind and size share one
// index no matter how many engines are built over them.
var csrCache sync.Map // Topology -> *CSR

// comparableTopology reports whether a topology value can be used as a map
// key, the precondition of the per-topology caches (CSROf, ShiftPlanOf).
func comparableTopology(t Topology) bool {
	return reflect.TypeOf(t).Comparable()
}

// CSROf returns the (possibly cached) CSR index of a topology.  Topologies
// whose dynamic type is not comparable cannot be used as cache keys and get
// a fresh index per call.
//
// Cached indexes are retained for the life of the process (~32 bytes per
// vertex per distinct topology value); long-running processes sweeping many
// distinct sizes that must bound memory can call BuildCSR through their own
// cache instead.
func CSROf(t Topology) *CSR {
	if !comparableTopology(t) {
		return BuildCSR(t)
	}
	if cached, ok := csrCache.Load(t); ok {
		return cached.(*CSR)
	}
	c := BuildCSR(t)
	cached, _ := csrCache.LoadOrStore(t, c)
	return cached.(*CSR)
}
