package color

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/rng"
)

func TestStringParseRoundTrip(t *testing.T) {
	src := rng.New(77)
	p := MustPalette(12)
	c := RandomColoring(grid.MustDims(6, 9), p, func() int { return src.Intn(p.K) })
	if !c.Equal(mustParse(c.String())) {
		t.Error("String/Parse round trip failed")
	}
}

func TestStringHasExpectedShape(t *testing.T) {
	c := NewColoring(grid.MustDims(3, 4), 2)
	s := c.String()
	lines := strings.Split(s, "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	for _, line := range lines {
		if line != "2222" {
			t.Errorf("unexpected line %q", line)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, rows, cols, k uint8) bool {
		r := 2 + int(rows)%6
		cl := 2 + int(cols)%6
		kk := 1 + int(k)%30
		src := rng.New(seed)
		p := MustPalette(kk)
		c := RandomColoring(grid.MustDims(r, cl), p, func() int { return src.Intn(p.K) })
		return c.Equal(mustParse(c.String()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
