package dynmon

import (
	"bytes"
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/graphs"
)

// star is a hub (vertex 0) with leaves 1..n-1, a palette size and an
// initial coloring (cells[v] is vertex v's color).
type star struct {
	name   string
	colors int
	cells  []int
}

// stars: on the 7-vertex star the hub sees a 3-3 tie of two colors, which
// irreversible-smp resolves by the first color it reads; on the 11-vertex
// star the hub sees eight distinct colors before its two neighbors on the
// target, which threshold (θ = 2) must still count.
var stars = []star{
	{"star7-2colors", 2, []int{2, 1, 1, 1, 2, 2, 2}},
	{"star11-10colors", 10, []int{10, 2, 3, 4, 5, 6, 7, 8, 9, 1, 1}},
}

// spellings returns three edge lists of the star: in order, reversed, and
// in order with one edge duplicated and one flipped.
func (s star) spellings() map[string][][2]int {
	var inOrder, reversed [][2]int
	for v := 1; v < len(s.cells); v++ {
		inOrder = append(inOrder, [2]int{0, v})
	}
	reversed = slices.Clone(inOrder)
	slices.Reverse(reversed)
	messy := slices.Clone(inOrder)
	messy[1] = [2]int{messy[1][1], messy[1][0]}
	messy = append(messy, inOrder[2])
	return map[string][][2]int{"in-order": inOrder, "reversed": reversed, "duplicated-flipped": messy}
}

func (s star) fileSpec(edges [][2]int, rule string) *FileSpec {
	cells := graphs.NewColoring(len(s.cells), None)
	for v, c := range s.cells {
		cells.Set(v, Color(c))
	}
	return &FileSpec{
		System:  Spec{Substrate: SubstrateSpec{Edges: &EdgeListSpec{N: len(s.cells), Edges: edges}}, Colors: s.colors, Rule: rule},
		Initial: &InitialSpec{Cells: cells},
		Run:     RunSpec{Target: 1},
	}
}

// runFileSpec runs a spec file as dynamosim -spec -result-json does and
// returns the system and the Result's JSON bytes.
func runFileSpec(t *testing.T, fs *FileSpec) (*System, []byte) {
	t.Helper()
	sys, cons, _, err := fs.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(context.Background(), cons.Coloring, WithRunSpec(fs.Run))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return sys, out
}

// TestEqualDigestsBuildEqualSystems pins the core promise on edge lists:
// every spelling of a star digests alike, builds a graph whose vertices
// read their neighbors in the same order, and so runs to the same Result
// bytes, under every registered rule.
func TestEqualDigestsBuildEqualSystems(t *testing.T) {
	for _, s := range stars {
		for _, rule := range RuleNames() {
			var (
				refName, refDigest string
				refSys             *System
				refOut             []byte
			)
			for name, edges := range s.spellings() {
				fs := s.fileSpec(edges, rule)
				digest, err := fs.Digest()
				if err != nil {
					t.Fatal(err)
				}
				sys, out := runFileSpec(t, fs)
				if refSys == nil {
					refName, refDigest, refSys, refOut = name, digest, sys, out
					continue
				}
				label := s.name + "/" + rule + ": " + name + " vs " + refName
				if digest != refDigest {
					t.Errorf("%s: digests %s and %s", label, digest, refDigest)
				}
				if !bytes.Equal(out, refOut) {
					t.Errorf("%s: Results differ:\n%s\n%s", label, out, refOut)
				}
				for v := 0; v < sys.N(); v++ {
					if got, want := sys.Graph().Neighbors(v), refSys.Graph().Neighbors(v); !slices.Equal(got, want) {
						t.Errorf("%s: vertex %d reads neighbors %v and %v", label, v, got, want)
					}
				}
			}
		}
	}
}

// TestWideStarActivatesHub: the 11-vertex star's hub has two of its ten
// neighbors on the target, so threshold (θ = 2) activates it, however late
// in its neighbor list the target arrives.
func TestWideStarActivatesHub(t *testing.T) {
	s := stars[1]
	for name, edges := range s.spellings() {
		sys, cons, _, err := s.fileSpec(edges, "threshold").Build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(context.Background(), cons.Coloring, Target(1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Final.At(0) != 1 {
			t.Errorf("%s: hub ends on %d, want 1", name, res.Final.At(0))
		}
	}
}

// TestGraphInstanceRunsItsSpec: a hand-built graph whose AddEdge calls list
// the hub's neighbors in descending order steps exactly what its System.Spec
// describes, so the system and the system rebuilt from its spec print the
// same Result bytes, though irreversible-smp resolves the hub's 3-3 tie by
// the first neighbor it reads.  The system keeps its own copy of the graph:
// mutating the caller's graph afterwards changes neither its Spec nor its
// Graph.
func TestGraphInstanceRunsItsSpec(t *testing.T) {
	s := stars[0]
	g := NewGraph(len(s.cells))
	for v := len(s.cells) - 1; v >= 1; v-- {
		g.AddEdge(0, v)
	}
	sys, err := New(Graph(g), Colors(s.colors), WithRule("irreversible-smp"))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sys.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := sp.New()
	if err != nil {
		t.Fatal(err)
	}
	initial := s.fileSpec(nil, "").Initial.Cells
	run := func(sys *System) []byte {
		res, err := sys.Run(context.Background(), initial, Target(1))
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if got, want := run(sys), run(rebuilt); !bytes.Equal(got, want) {
		t.Errorf("the hand-built system and its spec's system differ:\n%s\n%s", got, want)
	}

	g.AddEdge(1, 2)
	after, err := sys.Spec()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after.Substrate.Edges.Edges, sp.Substrate.Edges.Edges) {
		t.Errorf("mutating the caller's graph changed the system's spec: %v, was %v", after.Substrate.Edges.Edges, sp.Substrate.Edges.Edges)
	}
	if sys.Graph() == g || sys.Graph().HasEdge(1, 2) {
		t.Error("System.Graph returns the caller's graph, not the system's own copy")
	}
}
