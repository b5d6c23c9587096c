// Package graphs is the general-graph substrate for the extension study
// sketched in the paper's conclusions: running SMP-style majority dynamics
// and target-set-selection baselines on non-torus topologies such as
// scale-free (Barabási–Albert) networks.
//
// Graphs plug into the simulation engine of internal/sim through a cached
// CSR view (Graph.View implements sim.Substrate), so every run — Run,
// GreedyTargetSet, the E-series experiments and the public dynmon graph
// systems — executes on the same tiered engine as the tori: dirty frontier
// by default, striped parallel sweeps on request, pooled zero-allocation
// buffers throughout.  Only the bitplane tier stays torus-only.
package graphs

import (
	"fmt"
	"reflect"
	"sync"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Graph is a simple undirected graph stored as adjacency lists.
type Graph struct {
	adj [][]int
	// mu guards the lazily built view below; AddEdge invalidates it.
	mu   sync.Mutex
	view *View
}

// NewGraph returns an empty graph with n vertices.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("graphs: negative vertex count")
	}
	return &Graph{adj: make([][]int, n)}
}

// FromEdges returns the graph on n vertices with the given edges, filling
// the adjacency lists straight from the list in one pass over it: each
// vertex lists its neighbors in the order the edges name them, exactly as
// AddEdge calls in list order would, at O(n + m) rather than AddEdge's
// duplicate scans.  Every edge must join two distinct vertices in [0, n)
// and appear once in either orientation, as in a canonical edge list
// (oriented, sorted and deduplicated), which gives every vertex its
// neighbors in ascending order.
func FromEdges(n int, edges [][2]int) *Graph {
	g := NewGraph(n)
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	flat := make([]int, 2*len(edges))
	for v, d := range deg {
		if d > 0 {
			g.adj[v], flat = flat[:0:d], flat[d:]
		}
	}
	for _, e := range edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the adjacency list of v.  Callers must not modify it.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// HasEdge reports whether u and v are adjacent.
func (g *Graph) HasEdge(u, v int) bool {
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// AddEdge inserts the undirected edge {u, v}.  Self-loops and duplicate
// edges are ignored.  Mutating the graph invalidates its cached engine view
// (see View); engines built over an earlier view keep stepping the earlier
// snapshot.
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.N() || v >= g.N() {
		return
	}
	if g.HasEdge(u, v) {
		return
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	g.invalidate()
}

// invalidate drops the cached view after a mutation.
func (g *Graph) invalidate() {
	g.mu.Lock()
	g.view = nil
	g.mu.Unlock()
}

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, ns := range g.adj {
		total += len(ns)
	}
	return total / 2
}

// AverageDegree returns the mean vertex degree.
func (g *Graph) AverageDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.EdgeCount()) / float64(g.N())
}

// MaxDegree returns the largest vertex degree.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, ns := range g.adj {
		if len(ns) > max {
			max = len(ns)
		}
	}
	return max
}

// NewRing returns the cycle graph on n >= 3 vertices.
func NewRing(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graphs: ring needs at least 3 vertices, got %d", n)
	}
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
	}
	return g, nil
}

// NewBarabasiAlbert generates a scale-free graph with n vertices by
// preferential attachment: starting from a clique on m0 = m+1 vertices,
// every new vertex attaches to m existing vertices chosen with probability
// proportional to their degree.
func NewBarabasiAlbert(n, m int, src *rng.Source) (*Graph, error) {
	if m < 1 || n <= m {
		return nil, fmt.Errorf("graphs: Barabási–Albert requires 1 <= m < n, got n=%d m=%d", n, m)
	}
	if src == nil {
		src = rng.New(1)
	}
	g := NewGraph(n)
	// repeated holds every edge endpoint once per incidence, so picking a
	// uniform element implements preferential attachment.
	var repeated []int
	for u := 0; u <= m; u++ {
		for v := 0; v < u; v++ {
			g.AddEdge(u, v)
			repeated = append(repeated, u, v)
		}
	}
	for v := m + 1; v < n; v++ {
		// chosen is kept as an insertion-ordered slice, not a map: map
		// iteration order is randomized per run, and the order edges enter
		// `repeated` changes every later degree-proportional draw, which
		// silently made the "deterministic in the seed" contract false.
		chosen := make([]int, 0, m)
		for len(chosen) < m {
			var candidate int
			if len(repeated) == 0 {
				candidate = src.Intn(v)
			} else {
				candidate = repeated[src.Intn(len(repeated))]
			}
			if candidate == v {
				continue
			}
			dup := false
			for _, u := range chosen {
				if u == candidate {
					dup = true
					break
				}
			}
			if !dup {
				chosen = append(chosen, candidate)
			}
		}
		for _, u := range chosen {
			g.AddEdge(v, u)
			repeated = append(repeated, v, u)
		}
	}
	return g, nil
}

// NewErdosRenyi generates a G(n, p) random graph.
func NewErdosRenyi(n int, p float64, src *rng.Source) (*Graph, error) {
	if n < 1 || p < 0 || p > 1 {
		return nil, fmt.Errorf("graphs: invalid Erdős–Rényi parameters n=%d p=%v", n, p)
	}
	if src == nil {
		src = rng.New(1)
	}
	g := NewGraph(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if src.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g, nil
}

// NewRandomRegular generates a d-regular graph on n vertices using the
// pairing model with retries.  n*d must be even and d < n.
func NewRandomRegular(n, d int, src *rng.Source) (*Graph, error) {
	if d < 1 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graphs: invalid random-regular parameters n=%d d=%d", n, d)
	}
	if src == nil {
		src = rng.New(1)
	}
	for attempt := 0; attempt < 200; attempt++ {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		g := NewGraph(n)
		ok := true
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || g.HasEdge(u, v) {
				ok = false
				break
			}
			g.AddEdge(u, v)
		}
		if ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graphs: failed to build a %d-regular graph on %d vertices", d, n)
}

// View is the frozen, engine-facing snapshot of a Graph: its CSR adjacency
// index plus the metadata the sim.Substrate seam requires.  A View is
// structurally immutable and safe for concurrent use; Graph.View caches one
// per graph revision, so every engine, frontier and parallel run over an
// unmutated graph shares a single index.  Engines are memoized per rule on
// the view itself (EngineFor) rather than in a process-global cache, so a
// dropped graph releases its index and pooled run buffers with it.
type View struct {
	csr    *grid.CSR
	rounds int

	mu      sync.Mutex
	engines map[rules.Rule]*sim.Engine
}

// EngineFor returns the view's memoized engine for the rule, building it on
// first use.  Rules whose dynamic type is not comparable cannot be cache
// keys and get a fresh engine per call.
func (v *View) EngineFor(rule rules.Rule) *sim.Engine {
	if !reflect.TypeOf(rule).Comparable() {
		return sim.NewEngineOn(v, rule)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if e, ok := v.engines[rule]; ok {
		return e
	}
	if v.engines == nil {
		v.engines = map[rules.Rule]*sim.Engine{}
	}
	e := sim.NewEngineOn(v, rule)
	v.engines[rule] = e
	return e
}

// Dims returns the degenerate 1×n vertex layout general-graph colorings
// carry (see grid.BuildCSRAdj).
func (v *View) Dims() grid.Dims { return v.csr.Dims() }

// Name identifies the substrate in engine errors and experiment tables.
func (v *View) Name() string {
	return fmt.Sprintf("general-graph(n=%d)", v.csr.N())
}

// CSR returns the snapshot's adjacency index.
func (v *View) CSR() *grid.CSR { return v.csr }

// DefaultMaxRounds returns the graph's degree-aware round budget, computed
// once at snapshot time (see Graph.DefaultMaxRounds).
func (v *View) DefaultMaxRounds() int { return v.rounds }

// View returns the graph's cached CSR view, building it on first use.  The
// view is invalidated by mutations (AddEdge), so callers that interleave
// construction and simulation always step the current structure, while
// repeated runs over a frozen graph — the normal pattern — reuse one index
// and one pooled engine.
func (g *Graph) View() *View {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.view == nil {
		g.view = &View{csr: grid.BuildCSRAdj(g.adj), rounds: g.DefaultMaxRounds()}
	}
	return g.view
}

// CSR returns the graph's cached CSR adjacency index (View's index).
func (g *Graph) CSR() *grid.CSR { return g.View().CSR() }

// DefaultMaxRounds returns the round budget used when a run passes
// maxRounds <= 0.  The budget is degree-aware: synchronous information
// travels one hop per round, so sparse graphs (large diameter, up to ~n/2
// on a ring) need a budget linear in n, while denser graphs converge or
// freeze within far fewer rounds.  With d̄ the average degree, the budget is
//
//	2·n + 4·n/(d̄+1) + 32
//
// which stays linear in n on rings (d̄ = 2 gives ≈3.3·n+32, the same order
// as the old flat 4·n+16) and shrinks toward 2·n as the graph densifies,
// with constant slack so tiny graphs keep a usable budget.  As with the
// torus budget, exceeding it means "does not converge", not "budget too
// small".
func (g *Graph) DefaultMaxRounds() int {
	n := g.N()
	if n == 0 {
		return 32
	}
	avg := 2 * g.EdgeCount() / n
	return 2*n + 4*n/(avg+1) + 32
}

// Coloring is a color assignment over a graph's vertices.  It is the same
// flat coloring the torus engine evolves, carrying the degenerate 1×n
// vertex layout of the graph's View; NewColoring is the graph-shaped
// constructor.
type Coloring = color.Coloring

// NewColoring returns a coloring of n vertices filled with fill, laid out
// to match a View over an n-vertex graph.
func NewColoring(n int, fill color.Color) *Coloring {
	return color.NewColoring(grid.Dims{Rows: 1, Cols: n}, fill)
}
