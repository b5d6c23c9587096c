package color

import (
	"errors"
	"testing"
)

func TestColorValid(t *testing.T) {
	if None.Valid(5) {
		t.Error("None should not be valid")
	}
	if !Color(1).Valid(5) || !Color(5).Valid(5) {
		t.Error("colors 1 and 5 should be valid in a 5-palette")
	}
	if Color(6).Valid(5) {
		t.Error("color 6 should not be valid in a 5-palette")
	}
	if Color(-1).Valid(5) {
		t.Error("negative colors are never valid")
	}
}

func TestColorString(t *testing.T) {
	if None.String() != "-" {
		t.Errorf("None.String() = %q", None.String())
	}
	if Color(7).String() != "7" {
		t.Errorf("Color(7).String() = %q", Color(7).String())
	}
}

func TestColorRune(t *testing.T) {
	cases := []struct {
		c    Color
		want rune
	}{
		{None, '.'},
		{1, '1'},
		{9, '9'},
		{10, 'a'},
		{35, 'z'},
		{36, '#'},
		{100, '#'},
	}
	for _, tc := range cases {
		if got := tc.c.Rune(); got != tc.want {
			t.Errorf("Color(%d).Rune() = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestPaletteConstruction(t *testing.T) {
	if _, err := NewPalette(0); err == nil {
		t.Error("expected error for empty palette")
	}
	if _, err := NewPalette(255); err != nil {
		t.Errorf("NewPalette(255): %v", err)
	}
	for _, k := range []int{256, 1_000_000_000} {
		if _, err := NewPalette(k); !errors.Is(err, ErrPaletteTooLarge) {
			t.Errorf("NewPalette(%d) = %v, want ErrPaletteTooLarge", k, err)
		}
	}
	p, err := NewPalette(4)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 4 {
		t.Errorf("K = %d", p.K)
	}
	colors := p.Colors()
	if len(colors) != 4 || colors[0] != 1 || colors[3] != 4 {
		t.Errorf("Colors() = %v", colors)
	}
	if p.String() != "{1..4}" {
		t.Errorf("String() = %q", p.String())
	}
}

func TestMustPalettePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustPalette(0) should panic")
		}
	}()
	MustPalette(0)
}

func TestPaletteOthers(t *testing.T) {
	p := MustPalette(4)
	others := p.Others(2)
	want := []Color{1, 3, 4}
	if len(others) != len(want) {
		t.Fatalf("Others(2) = %v", others)
	}
	for i := range want {
		if others[i] != want[i] {
			t.Fatalf("Others(2) = %v, want %v", others, want)
		}
	}
	if len(p.Others(9)) != 4 {
		t.Error("Others of a color outside the palette should return all colors")
	}
}

func TestPaletteContains(t *testing.T) {
	p := MustPalette(3)
	if !p.Contains(1) || !p.Contains(3) {
		t.Error("palette should contain 1 and 3")
	}
	if p.Contains(0) || p.Contains(4) {
		t.Error("palette should not contain 0 or 4")
	}
}
