package color

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/grid"
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
// mismatches, negative cells and non-object documents all error.
func TestColoringJSONRejectsMalformed(t *testing.T) {
	for label, doc := range map[string]string{
		"cell count mismatch": `{"rows":2,"cols":2,"cells":[1,2,3]}`,
		"zero rows":           `{"rows":0,"cols":2,"cells":[]}`,
		"negative cell":       `{"rows":1,"cols":2,"cells":[1,-2]}`,
		"not an object":       `[1,2,3]`,
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
