package grid

import (
	"fmt"
	"slices"
	"testing"
)

// sweepStripes cuts the vertex line [0, n) the way the parallel sweep cuts
// a round: into at most k contiguous stripes of ceil(n/k) vertices, the
// last one possibly shorter, and never an empty one.
func sweepStripes(n, k int) [][2]int {
	k = min(k, n)
	if k < 1 {
		return nil
	}
	chunk := (n + k - 1) / k
	var out [][2]int
	for lo := 0; lo < n; lo += chunk {
		out = append(out, [2]int{lo, min(lo+chunk, n)})
	}
	return out
}

// checkStripes differentially verifies the index against rows, the source
// adjacency, one stripe at a time: the stripes' row frames tile the
// forward table in order, every framed row is the source row verbatim,
// MaxDegree is the largest row, and a uniform index keeps each row at its
// dense offset Uniform()*v, which the engine's unrolled loops index by.
// It returns each stripe's halo — the distinct out-of-stripe vertices its
// rows read, ascending — which are the cells other stripes write in the
// same round.
func checkStripes(t *testing.T, c *CSR, rows func(v int) []int, stripes [][2]int) [][]int {
	t.Helper()
	n := c.N()
	if c.Off[0] != 0 || int(c.Off[n]) != len(c.Neighbors) {
		t.Fatalf("Off frames [%d,%d) of a %d-entry forward table", c.Off[0], c.Off[n], len(c.Neighbors))
	}
	halos := make([][]int, len(stripes))
	covered, maxDeg := 0, 0
	for si, s := range stripes {
		lo, hi := s[0], s[1]
		if lo != covered || hi <= lo {
			t.Fatalf("stripe %d = [%d,%d) does not continue the cover at %d", si, lo, hi, covered)
		}
		covered = hi
		if c.Off[hi] < c.Off[lo] {
			t.Fatalf("stripe %d frames [%d,%d) backwards", si, c.Off[lo], c.Off[hi])
		}
		frame := c.Neighbors[c.Off[lo]:c.Off[hi]]
		ghosts := map[int]bool{}
		at := 0
		for v := lo; v < hi; v++ {
			want := rows(v)
			if deg := int(c.Off[v+1] - c.Off[v]); deg != len(want) {
				t.Fatalf("stripe %d vertex %d has degree %d, want %d", si, v, deg, len(want))
			}
			if int(c.Off[v]) != int(c.Off[lo])+at {
				t.Fatalf("stripe %d row %d starts at %d, want %d", si, v, c.Off[v], int(c.Off[lo])+at)
			}
			if u := c.Uniform(); u > 0 && int(c.Off[v]) != u*v {
				t.Fatalf("uniform row %d starts at %d, want %d", v, c.Off[v], u*v)
			}
			for i, u := range want {
				if got := int(frame[at+i]); got != u {
					t.Fatalf("stripe %d row %d entry %d = %d, want %d", si, v, i, got, u)
				}
				if u < lo || u >= hi {
					ghosts[u] = true
				}
			}
			at += len(want)
			maxDeg = max(maxDeg, len(want))
		}
		if at != len(frame) {
			t.Fatalf("stripe %d frames %d entries, its rows hold %d", si, len(frame), at)
		}
		for u := range ghosts {
			halos[si] = append(halos[si], u)
		}
		slices.Sort(halos[si])
	}
	if covered != n {
		t.Fatalf("stripes cover [0,%d), want [0,%d)", covered, n)
	}
	if c.MaxDegree() != maxDeg {
		t.Fatalf("MaxDegree = %d, want %d", c.MaxDegree(), maxDeg)
	}
	return halos
}

// TestShardsCoverAllTopologies checks the cached index of every registered
// torus through the shards the parallel sweep steps a round in — k
// contiguous stripes of the vertex line, uneven ones and more stripes than
// vertices included — on the degenerate 2-row tori, whose ports collapse
// onto duplicate vertices, too.  On these tori a stripe's halo is also
// local: it lies in the lattice rows the stripe covers or in the row just
// above or just below them (mod Rows), the spirals' wrap ports included,
// so a stripe reads at most two rows beyond its own.  The tori are
// connected, so with two or more stripes no halo is empty.
func TestShardsCoverAllTopologies(t *testing.T) {
	sizes := []struct{ rows, cols int }{
		{2, 5}, {2, 2}, {3, 67}, {5, 4}, {8, 8}, {16, 3},
	}
	for _, kind := range Kinds() {
		for _, sz := range sizes {
			topo, err := New(kind, sz.rows, sz.cols)
			if err != nil {
				t.Fatal(err)
			}
			c := BuildCSR(topo)
			if c.Uniform() != Degree {
				t.Fatalf("%s %dx%d: Uniform = %d, want %d", topo.Name(), sz.rows, sz.cols, c.Uniform(), Degree)
			}
			for _, k := range []int{1, 2, 3, 4, 7, 64} {
				name := fmt.Sprintf("%s/%dx%d/k%d", topo.Name(), sz.rows, sz.cols, k)
				t.Run(name, func(t *testing.T) {
					stripes := sweepStripes(c.N(), k)
					halos := checkStripes(t, c, func(v int) []int { return topo.Neighbors(v, nil) }, stripes)
					m := sz.rows
					for si, s := range stripes {
						first, last := s[0]/sz.cols, (s[1]-1)/sz.cols
						if len(stripes) > 1 && len(halos[si]) == 0 {
							t.Fatalf("stripe %d = [%d,%d) reads no other stripe", si, s[0], s[1])
						}
						for _, u := range halos[si] {
							r := u / sz.cols
							if (r < first || r > last) && r != (first-1+m)%m && r != (last+1)%m {
								t.Fatalf("stripe %d = [%d,%d) on rows %d..%d reads vertex %d of row %d",
									si, s[0], s[1], first, last, u, r)
							}
						}
					}
				})
			}
		}
	}
}

// TestShardsGeneralGraph runs the stripe checks on an irregular graph with
// a hub, whose rows differ in length, including stripe counts far beyond
// the vertex count: one stripe reads nothing outside itself, and a
// one-vertex stripe's halo is exactly that vertex's distinct neighbors.
func TestShardsGeneralGraph(t *testing.T) {
	adj := [][]int{
		{1, 2, 3, 4, 5}, // heavy hub
		{0}, {0}, {0, 4}, {3, 0}, {0},
		{7}, {6},
	}
	c := BuildCSRAdj(adj)
	if c.Uniform() != 0 {
		t.Fatalf("irregular index reported Uniform = %d", c.Uniform())
	}
	for _, k := range []int{1, 2, 3, 8, 100} {
		t.Run(fmt.Sprintf("k%d", k), func(t *testing.T) {
			stripes := sweepStripes(len(adj), k)
			halos := checkStripes(t, c, func(v int) []int { return adj[v] }, stripes)
			if len(stripes) == 1 && len(halos[0]) != 0 {
				t.Fatalf("the whole-graph stripe reads %v outside itself", halos[0])
			}
			if len(stripes) != len(adj) {
				return
			}
			for v, row := range adj {
				want := slices.Compact(slices.Sorted(slices.Values(row)))
				if !slices.Equal(halos[v], want) {
					t.Fatalf("one-vertex stripe %d has halo %v, want %v", v, halos[v], want)
				}
			}
		})
	}
}
