// Package grid defines the interaction topologies studied by the paper
// "Dynamic Monopolies in Colored Tori": the toroidal mesh, the torus cordalis
// and the torus serpentinus.  All three are 4-regular graphs laid out on an
// m×n lattice of vertices; they differ only in how the lattice wraps around
// at its borders (Section II.A of the paper).
//
// Vertices are addressed either by (row, column) coordinates or by a dense
// integer index row*Cols+col; the integer form is what the simulation engine
// uses in its inner loops.
package grid

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Degree is the number of neighbors of every vertex in all three torus
// topologies.  When a dimension equals 2 the four neighbor "ports" may refer
// to the same vertex twice; the protocol is defined on the four ports, so
// duplicates are preserved.
const Degree = 4

// Coord is a (row, column) vertex position.
type Coord struct {
	Row, Col int
}

// String renders the coordinate as "(r,c)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Row, c.Col) }

// Dims describes the size of an m×n torus: Rows = m, Cols = n.
type Dims struct {
	Rows, Cols int
}

// ErrTooLarge is wrapped by the errors NewDims returns for lattices whose
// size the engine cannot index: rows·cols overflows int, or the Degree·N
// adjacency entries overflow the int32 offsets of CSR.
var ErrTooLarge = errors.New("grid: lattice too large")

// NewDims validates and returns the dimensions of an m×n torus.  The paper
// requires m, n >= 2; the vertex count must also fit the engine's indexes
// (ErrTooLarge).
func NewDims(rows, cols int) (Dims, error) {
	if rows < 2 || cols < 2 {
		return Dims{}, fmt.Errorf("grid: dimensions must be at least 2x2, got %dx%d", rows, cols)
	}
	hi, n := bits.Mul64(uint64(rows), uint64(cols))
	if hi != 0 || n > math.MaxInt {
		return Dims{}, fmt.Errorf("%w: %dx%d vertices overflow int", ErrTooLarge, rows, cols)
	}
	if n > math.MaxInt32/Degree {
		return Dims{}, fmt.Errorf("%w: %dx%d = %d vertices; their %d·N adjacency entries overflow the int32 CSR offsets (at most %d vertices)", ErrTooLarge, rows, cols, n, Degree, math.MaxInt32/Degree)
	}
	return Dims{Rows: rows, Cols: cols}, nil
}

// MustDims is NewDims but panics on invalid dimensions.  It is intended for
// tests and for constructions whose sizes are validated earlier.
func MustDims(rows, cols int) Dims {
	d, err := NewDims(rows, cols)
	if err != nil {
		panic(err)
	}
	return d
}

// N returns the number of vertices.
func (d Dims) N() int { return d.Rows * d.Cols }

// Min returns min(Rows, Cols), the quantity the paper calls N.
func (d Dims) Min() int {
	if d.Rows < d.Cols {
		return d.Rows
	}
	return d.Cols
}

// IndexRC converts a (row, col) pair to its dense vertex index.
func (d Dims) IndexRC(row, col int) int { return row*d.Cols + col }

// Coord converts a dense vertex index back to a coordinate.
func (d Dims) Coord(v int) Coord { return Coord{Row: v / d.Cols, Col: v % d.Cols} }

// String renders the dimensions as "RxC".
func (d Dims) String() string { return fmt.Sprintf("%dx%d", d.Rows, d.Cols) }

// Kind identifies one of the three torus topologies.
type Kind int

const (
	// KindToroidalMesh wraps rows onto themselves and columns onto
	// themselves.
	KindToroidalMesh Kind = iota
	// KindTorusCordalis chains all rows into a single horizontal spiral:
	// the last vertex of row i is connected to the first vertex of row
	// (i+1) mod m.  Columns wrap as in the toroidal mesh.
	KindTorusCordalis
	// KindTorusSerpentinus additionally chains all columns into a single
	// vertical spiral: the last vertex of column j is connected to the
	// first vertex of column (j-1) mod n.
	KindTorusSerpentinus
)

// Kinds lists the three topologies in the order they appear in the paper.
func Kinds() []Kind {
	return []Kind{KindToroidalMesh, KindTorusCordalis, KindTorusSerpentinus}
}

// String returns the paper's name for the topology.
func (k Kind) String() string {
	switch k {
	case KindToroidalMesh:
		return "toroidal-mesh"
	case KindTorusCordalis:
		return "torus-cordalis"
	case KindTorusSerpentinus:
		return "torus-serpentinus"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Topology is a 4-regular interaction topology over an m×n vertex lattice.
//
// Implementations must be immutable after construction and safe for
// concurrent readers; the parallel simulation engine shares one Topology
// across workers.
type Topology interface {
	// Dims returns the lattice dimensions.
	Dims() Dims
	// Kind identifies the topology.
	Kind() Kind
	// Name returns the paper's name for the topology.
	Name() string
	// Neighbors appends the four neighbor indices of vertex v to buf and
	// returns the extended slice.  The order is up, down, left, right
	// (with the topology-specific border wrapping).  Passing a buffer
	// with capacity >= 4 avoids allocation in inner loops.
	Neighbors(v int, buf []int) []int
	// NeighborCoords is the coordinate form of Neighbors.
	NeighborCoords(c Coord, buf []Coord) []Coord
}

// New constructs the topology of the given kind and size.
func New(kind Kind, rows, cols int) (Topology, error) {
	d, err := NewDims(rows, cols)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindToroidalMesh:
		return ToroidalMesh{dims: d}, nil
	case KindTorusCordalis:
		return TorusCordalis{dims: d}, nil
	case KindTorusSerpentinus:
		return TorusSerpentinus{dims: d}, nil
	default:
		return nil, fmt.Errorf("grid: unknown topology kind %d", int(kind))
	}
}

// MustNew is New but panics on error; intended for tests and examples with
// hard-coded sizes.
func MustNew(kind Kind, rows, cols int) Topology {
	t, err := New(kind, rows, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// UniqueNeighbors returns the de-duplicated neighbor set of v (duplicates
// appear only when a dimension equals 2).  The result preserves first-seen
// order.
func UniqueNeighbors(t Topology, v int) []int {
	var buf [Degree]int
	ns := t.Neighbors(v, buf[:0])
	out := make([]int, 0, Degree)
	for _, u := range ns {
		dup := false
		for _, w := range out {
			if w == u {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, u)
		}
	}
	return out
}
