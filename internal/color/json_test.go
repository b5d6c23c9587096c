package color

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
)

// TestColoringJSONRoundTrip pins the wire form of a coloring, including the
// degenerate 1×n layout general-graph colorings carry and colors beyond the
// rune-grid cap of 35.
func TestColoringJSONRoundTrip(t *testing.T) {
	c := NewColoring(grid.MustDims(2, 3), None)
	for v := 0; v < c.N(); v++ {
		c.Set(v, Color(v*20+1)) // includes colors > 35
	}
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rows":2,"cols":3,"cells":[1,21,41,61,81,101]}`
	if string(b) != want {
		t.Fatalf("wire form drifted:\n got %s\nwant %s", b, want)
	}
	var back Coloring
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(c) {
		t.Fatal("coloring did not round-trip")
	}

	line := &Coloring{dims: grid.Dims{Rows: 1, Cols: 4}, cells: []Color{1, 2, 1, 2}}
	b, err = json.Marshal(line)
	if err != nil {
		t.Fatal(err)
	}
	var lineBack Coloring
	if err := json.Unmarshal(b, &lineBack); err != nil {
		t.Fatalf("1xn layout rejected: %v", err)
	}
	if !lineBack.Equal(line) {
		t.Fatal("1xn coloring did not round-trip")
	}
}

// TestColoringJSONRejectsMalformed pins strict decoding: dimension and cell
// mismatches (overflowing products included), negative cells and
// non-object documents all error.
func TestColoringJSONRejectsMalformed(t *testing.T) {
	for label, doc := range map[string]string{
		"cell count mismatch": `{"rows":2,"cols":2,"cells":[1,2,3]}`,
		"zero rows":           `{"rows":0,"cols":2,"cells":[]}`,
		"negative cell":       `{"rows":1,"cols":2,"cells":[1,-2]}`,
		"not an object":       `[1,2,3]`,
		// rows·cols wraps to the cell count in 64-bit arithmetic.
		"overflow to four cells": `{"rows":4611686018427387905,"cols":4,"cells":[1,1,1,1]}`,
		"overflow to no cells":   `{"rows":4611686018427387904,"cols":4,"cells":[]}`,
	} {
		var c Coloring
		if err := json.Unmarshal([]byte(doc), &c); err == nil {
			t.Errorf("%s: accepted %s", label, doc)
		}
	}
}

// TestColoringJSONBoundsCellColors pins the color cap on decoded cells: a
// cell above the palette but within one byte decodes (the increment rule
// mints such colors), one beyond it fails with ErrCellColorTooLarge before
// any per-color table could be sized by it.
func TestColoringJSONBoundsCellColors(t *testing.T) {
	var c Coloring
	if err := json.Unmarshal([]byte(`{"rows":1,"cols":2,"cells":[1,255]}`), &c); err != nil || c.At(1) != 255 {
		t.Fatalf("cell color 255 rejected: %v", err)
	}
	for _, v := range []string{"256", "1000000000"} {
		doc := `{"rows":1,"cols":2,"cells":[1,` + v + `]}`
		if err := json.Unmarshal([]byte(doc), &c); !errors.Is(err, ErrCellColorTooLarge) {
			t.Errorf("cell color %s: err = %v, want ErrCellColorTooLarge", v, err)
		}
	}
}

// TestColoringAppendJSONMatchesMirror pins the wire writer to encoding/json.
// Over random colorings (1×n layouts, an empty one, colors 0 and 255 and
// every digit count between), AppendJSON and MarshalJSON must give the bytes
// json.Marshal writes for coloringJSON, a mirror with no Marshaler, and a
// nil coloring must write null, as encoding/json does for a nil *Coloring.
func TestColoringAppendJSONMatchesMirror(t *testing.T) {
	src := rng.New(7)
	edges := []Color{0, 1, 2, 9, 10, 99, 100, 255}
	for i := 0; i < 2000; i++ {
		c := &Coloring{}
		if i > 0 {
			c = NewColoring(grid.Dims{Rows: 1 + src.Intn(4), Cols: 1 + src.Intn(9)}, None)
			for v := range c.cells {
				c.cells[v] = Color(src.Intn(256))
				if src.Intn(2) == 0 {
					c.cells[v] = edges[src.Intn(len(edges))]
				}
			}
		}
		mirror := coloringJSON{Rows: c.dims.Rows, Cols: c.dims.Cols, Cells: make([]int, len(c.cells))}
		for v, cv := range c.cells {
			mirror.Cells[v] = int(cv)
		}
		want, err := json.Marshal(mirror)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Fatalf("AppendJSON after a prefix:\n got %s\nwant x%s", got, want)
		}
		if got, err := json.Marshal(c); err != nil || string(got) != string(want) {
			t.Fatalf("json.Marshal through MarshalJSON:\n got %s (%v)\nwant %s", got, err, want)
		}
	}
	want, _ := json.Marshal((*Coloring)(nil))
	if got := (*Coloring)(nil).AppendJSON(nil); string(got) != string(want) {
		t.Fatalf("nil coloring writes %s, encoding/json %s", got, want)
	}
}
