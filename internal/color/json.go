package color

import (
	"encoding/json"
	"fmt"
	"math/bits"

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
// simulation results, reports and checkpoints.
func (c *Coloring) MarshalJSON() ([]byte, error) {
	out := coloringJSON{Rows: c.dims.Rows, Cols: c.dims.Cols, Cells: make([]int, len(c.cells))}
	for i, v := range c.cells {
		out.Cells[i] = int(v)
	}
	return json.Marshal(out)
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
