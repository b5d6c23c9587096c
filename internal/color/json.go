package color

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"

	"repro/internal/grid"
)

// coloringJSON is the wire form of a Coloring: the lattice dimensions plus
// the row-major cell array.  Cells are plain integer labels so palettes of
// any size round-trip (the rune grid of String caps at 35).
type coloringJSON struct {
	Rows  int   `json:"rows"`
	Cols  int   `json:"cols"`
	Cells []int `json:"cells"`
}

// MarshalJSON encodes the coloring as {"rows", "cols", "cells"} with
// row-major integer cells.  It is the stable wire contract used by
// simulation results, reports and checkpoints, and returns AppendJSON's
// bytes.
func (c *Coloring) MarshalJSON() ([]byte, error) {
	return c.AppendJSON(nil), nil
}

// AppendJSON appends the coloring's wire form to b and returns the extended
// buffer: the bytes encoding/json writes for coloringJSON, and null for a
// nil coloring, as encoding/json writes for a nil *Coloring.
func (c *Coloring) AppendJSON(b []byte) []byte {
	if c == nil {
		return append(b, "null"...)
	}
	b = strconv.AppendInt(append(b, `{"rows":`...), int64(c.dims.Rows), 10)
	b = strconv.AppendInt(append(b, `,"cols":`...), int64(c.dims.Cols), 10)
	return append(AppendInts(append(b, `,"cells":`...), c.cells), '}')
}

// smallInts[v+1] is ",v" for v in -1..99 (every color of a small palette,
// every round of a short run and the never-reached -1), packed little-endian
// into the low bytes of a word whose top byte is the text's length.
var smallInts = func() (t [101]uint32) {
	for i := range t {
		s := "," + strconv.Itoa(i-1)
		for j := 0; j < len(s); j++ {
			t[i] |= uint32(s[j]) << (8 * j)
		}
		t[i] |= uint32(len(s)) << 24
	}
	return t
}()

// AppendInts appends vs to b as a JSON array of decimal integers, the bytes
// encoding/json writes for a non-nil int slice.  A value in smallInts is one
// four-byte store and a length step, with no branch on its digits: a
// first_reached trace mixes -1, one and two digits too irregularly for a
// predicted branch.  It reserves two bytes per value up front, a one-digit
// value and its separator.
func AppendInts[T ~int](b []byte, vs []T) []byte {
	start := len(b)
	b = slices.Grow(b, 2*len(vs)+4)
	for _, v := range vs {
		i := uint(v + 1)
		if i >= uint(len(smallInts)) {
			b = strconv.AppendInt(append(b, ','), int64(v), 10)
			continue
		}
		if cap(b)-len(b) < 4 {
			b = slices.Grow(b, 4)
		}
		w, n := smallInts[i], len(b)
		binary.LittleEndian.PutUint32(b[n:n+4], w)
		b = b[:n+int(w>>24)]
	}
	if len(b) == start {
		return append(b, "[]"...)
	}
	b[start] = '[' // the first value's separator
	return append(b, ']')
}

// UnmarshalJSON decodes the format produced by MarshalJSON.  It accepts the
// degenerate 1×n layout general-graph colorings carry; it rejects
// dimension/cell-count mismatches (rows·cols is computed without
// overflow), negative cells and cells above the color cap
// (ErrCellColorTooLarge).
func (c *Coloring) UnmarshalJSON(b []byte) error {
	var in coloringJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if in.Rows < 1 || in.Cols < 1 {
		return fmt.Errorf("color: coloring dimensions %dx%d must be at least 1x1", in.Rows, in.Cols)
	}
	if hi, lo := bits.Mul64(uint64(in.Rows), uint64(in.Cols)); hi != 0 || lo != uint64(len(in.Cells)) {
		return fmt.Errorf("color: coloring %dx%d does not match its %d cells", in.Rows, in.Cols, len(in.Cells))
	}
	cells := make([]Color, len(in.Cells))
	for i, v := range in.Cells {
		if v < 0 {
			return fmt.Errorf("color: cell %d has negative color %d", i, v)
		}
		if v > maxColor {
			return fmt.Errorf("%w: cell %d has color %d", ErrCellColorTooLarge, i, v)
		}
		cells[i] = Color(v)
	}
	c.dims = grid.Dims{Rows: in.Rows, Cols: in.Cols}
	c.cells = cells
	return nil
}
