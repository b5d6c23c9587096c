// Package color defines the color alphabet and the lattice colorings on
// which the SMP-Protocol operates.
//
// Following Section II.B of the paper, the color set is C = {1, …, k}; a
// coloring is a total assignment r : V → C.  The package keeps colorings as
// flat slices indexed by the dense vertex index of internal/grid so the
// simulation engine can iterate without bounds-check-heavy nested loops.
package color

import (
	"fmt"
)

// Color is one element of the finite color set C = {1..k}.  The zero value
// means "unset" and never appears in a valid coloring.
type Color int

// None is the zero Color, used to signal "no color" in APIs that may fail to
// produce one.
const None Color = 0

// Valid reports whether the color belongs to {1..k} for a palette of k
// colors.
func (c Color) Valid(k int) bool { return c >= 1 && int(c) <= k }

// String renders the color as its integer label, or "-" for None.
func (c Color) String() string {
	if c == None {
		return "-"
	}
	return fmt.Sprintf("%d", int(c))
}

// Rune returns a single printable rune for the color, used by the ASCII
// renderer: 1..9 map to '1'..'9', 10..35 to 'a'..'z', anything else to '#'.
// None maps to '.'.
func (c Color) Rune() rune {
	switch {
	case c == None:
		return '.'
	case c >= 1 && c <= 9:
		return rune('0' + int(c))
	case c >= 10 && c <= 35:
		return rune('a' + int(c) - 10)
	default:
		return '#'
	}
}

// Palette is the finite ordered color set C = {1..K}.
type Palette struct {
	// K is the number of colors.
	K int
}

// maxColor is the largest color a vertex may carry, the most one byte per
// vertex can hold.  It caps both palettes and decoded cells, which bounds
// the per-color tables a run keeps (the frontier's color histogram)
// whatever a spec or checkpoint asks for.
const maxColor = 255

// ErrPaletteTooLarge reports a palette of more than maxColor colors.
var ErrPaletteTooLarge = fmt.Errorf("color: palette exceeds the limit of %d colors", maxColor)

// ErrCellColorTooLarge reports a decoded cell whose color exceeds maxColor.
// Cells above the palette but within the cap stay legal: the increment rule
// mints such colors.
var ErrCellColorTooLarge = fmt.Errorf("color: cell color exceeds the limit of %d", maxColor)

// NewPalette returns the palette {1..k}.  It returns an error for k < 1 and
// one wrapping ErrPaletteTooLarge for k > maxColor.
func NewPalette(k int) (Palette, error) {
	if k < 1 {
		return Palette{}, fmt.Errorf("color: palette must have at least 1 color, got %d", k)
	}
	if k > maxColor {
		return Palette{}, fmt.Errorf("%w: got %d", ErrPaletteTooLarge, k)
	}
	return Palette{K: k}, nil
}

// MustPalette is NewPalette but panics on error.
func MustPalette(k int) Palette {
	p, err := NewPalette(k)
	if err != nil {
		panic(err)
	}
	return p
}

// Others returns the palette's colors except k, in increasing order.  The
// paper writes this set C \ {k}.
func (p Palette) Others(k Color) []Color {
	out := make([]Color, 0, p.K-1)
	for i := 1; i <= p.K; i++ {
		if Color(i) != k {
			out = append(out, Color(i))
		}
	}
	return out
}

// Contains reports whether c belongs to the palette.
func (p Palette) Contains(c Color) bool { return c.Valid(p.K) }

// String renders the palette as "{1..K}".
func (p Palette) String() string { return fmt.Sprintf("{1..%d}", p.K) }
