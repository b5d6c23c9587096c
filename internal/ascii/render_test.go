package ascii

import (
	"strings"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
)

func TestColoringRender(t *testing.T) {
	c := color.NewColoring(grid.MustDims(2, 2), 1)
	c.SetRC(0, 1, 2)
	c.SetRC(1, 0, 2)
	out := Coloring(c, 1)
	if !strings.Contains(out, "|B2|") || !strings.Contains(out, "|2B|") {
		t.Errorf("highlight not applied:\n%s", out)
	}
	if !strings.Contains(out, "legend:") {
		t.Errorf("missing legend:\n%s", out)
	}
	if !strings.Contains(out, "+--+") {
		t.Errorf("missing border:\n%s", out)
	}
	// Without highlight the raw runes appear.
	out = Coloring(c, color.None)
	if !strings.Contains(out, "|12|") {
		t.Errorf("unhighlighted render wrong:\n%s", out)
	}
}

func TestColoringLegendCountsAllColors(t *testing.T) {
	c := color.NewColoring(grid.MustDims(3, 3), color.None)
	for v := 0; v < c.N(); v++ {
		c.Set(v, color.Color(v%3+1))
	}
	out := Coloring(c, color.None)
	for _, want := range []string{"color 1 (3)", "color 2 (3)", "color 3 (3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("legend missing %q:\n%s", want, out)
		}
	}
}

func TestIntMatrix(t *testing.T) {
	out := IntMatrix([][]int{{0, 1, 2}, {10, -1, 3}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	if !strings.Contains(lines[1], "·") {
		t.Errorf("negative entry should render as middle dot: %q", lines[1])
	}
	if !strings.Contains(lines[1], "10") {
		t.Errorf("missing value 10: %q", lines[1])
	}
	// Columns are aligned: both lines have equal rune length.
	if len([]rune(lines[0])) != len([]rune(lines[1])) {
		t.Errorf("misaligned rows: %q vs %q", lines[0], lines[1])
	}
	if IntMatrix(nil) != "" {
		t.Error("empty matrix should render as empty string")
	}
}

func TestSideBySide(t *testing.T) {
	out := SideBySide("aa\nbb\ncc", "XX\nYY", " | ")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 lines, got %d", len(lines))
	}
	if lines[0] != "aa | XX" {
		t.Errorf("line 0 = %q", lines[0])
	}
	if lines[2] != "cc | " {
		t.Errorf("line 2 = %q", lines[2])
	}
}

func TestSideBySideRightLonger(t *testing.T) {
	out := SideBySide("a", "x\ny", "|")
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("expected 2 lines, got %d", len(lines))
	}
	if lines[1] != " |y" {
		t.Errorf("line 1 = %q", lines[1])
	}
}

func TestBanner(t *testing.T) {
	out := Banner("Hello")
	if !strings.Contains(out, "| Hello |") {
		t.Errorf("banner missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 || len(lines[0]) != len(lines[1]) {
		t.Errorf("banner misaligned: %q", out)
	}
}
