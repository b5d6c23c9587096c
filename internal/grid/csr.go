package grid

import "fmt"

// CSR is a compressed sparse row adjacency index, the flat form the
// simulation engine iterates over.  Two constructions exist: BuildCSR for
// the Degree-regular torus topologies and BuildCSRAdj for arbitrary
// adjacency lists — the seam that lets one engine run over any substrate,
// torus or not.  Neither caches: an engine builds its index once and owns
// it, so the index lives exactly as long as whoever holds the engine.
//
// The table lists the neighbors of vertex v in Neighbors[Off[v]:Off[v+1]].
// When the index is degree-regular (Uniform() > 0) the slice is
// additionally dense — vertex v's neighbors occupy
// Neighbors[Uniform()*v : Uniform()*(v+1)] — which is what the engine's
// unrolled torus loops rely on.  The order of a torus row is the up, down,
// left, right order Topology.Neighbors produces; a general row preserves
// the adjacency-list order it was built from.
//
// The neighbor relation is symmetric (u is in v's row exactly when v is in
// u's), so v's row also answers the frontier stepper's question "when v
// changes color, who reads it next round?".  Rows may contain duplicates
// when a torus dimension equals 2 (the four neighbor ports collapse).
//
// A CSR is immutable after construction and safe for concurrent use.
type CSR struct {
	dims Dims
	// Neighbors is the adjacency table; vertex v's neighbors occupy
	// Neighbors[Off[v]:Off[v+1]].
	Neighbors []int32
	// Off frames each vertex's row, len n+1.
	Off []int32

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
// the same number of neighbors, and 0 for irregular indexes.  A positive
// Uniform licenses the engine's dense unrolled loops.
func (c *CSR) Uniform() int { return c.uniform }

// MaxDegree returns the largest neighbor count of any vertex (0 for the
// empty index).  The engine sizes its per-run scratch buffers with it.
func (c *CSR) MaxDegree() int { return c.maxDeg }

// BuildCSR computes the CSR index of a torus topology.  It panics, naming
// the topology, when the neighbor relation is not symmetric (Topology's
// contract): some vertex lists a neighbor whose own row does not list it
// back.
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
	fwd := c.Neighbors
	for v := 0; v < n; v++ {
		for _, u := range fwd[v*Degree : v*Degree+Degree] {
			back := fwd[int(u)*Degree : int(u)*Degree+Degree]
			if back[0] != int32(v) && back[1] != int32(v) && back[2] != int32(v) && back[3] != int32(v) {
				panic(fmt.Sprintf("grid: topology %q (%v) is not symmetric: %d is a neighbor of %d, but not the other way round", t.Name(), d, u, v))
			}
		}
	}
	return c
}

// BuildCSRAdj computes the CSR index of an arbitrary adjacency-list graph:
// adj[v] lists the neighbors vertex v reads each round.  The relation must
// be symmetric, as on an undirected graph that lists every edge in both
// rows; unlike BuildCSR it is not checked here, because its caller builds
// undirected graphs by construction.  The index gets the degenerate 1×n
// vertex layout (see Dims).
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
	return c
}
