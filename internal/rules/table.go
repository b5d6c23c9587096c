package rules

import "repro/internal/color"

// TableColors is the largest color a Table covers.
const TableColors = 8

// Table is a rule tabulated over every ordered degree-4 neighborhood with
// all five colors in {1..TableColors}: the slot TableIndex(c, n0, n1, n2,
// n3) holds Next(c, [n0 n1 n2 n3]) as a byte.  Three bits per color make
// 2¹⁵ slots, 32 KiB, so one lookup replaces the tally, the maximum and the
// data-dependent branches of a counts evaluation.
type Table [1 << 15]uint8

// Tabulate fills a table from r.Next on every ordered tuple (c; n0, n1, n2,
// n3) over {1..TableColors}.  It returns nil when some answer falls outside
// 1..255, which a byte cannot hold.  Rule's contract — a pure function of
// the current color and the neighbor colors — is what licenses the table.
func Tabulate(r Rule) *Table {
	t := new(Table)
	ns := make([]color.Color, 4)
	for i := range t {
		for p := range ns {
			ns[p] = color.Color(i>>(9-3*p)&7 + 1)
		}
		nc := r.Next(color.Color(i>>12+1), ns)
		if nc < 1 || nc > 255 {
			return nil
		}
		t[i] = uint8(nc)
	}
	return t
}

// TableIndex returns the Table slot of the ordered neighborhood (c; n0, n1,
// n2, n3), and false when some color lies outside {1..TableColors}: the OR
// of the five colors minus one must be below 8.  The index is masked to
// the table, so a lookup needs no bounds check.
func TableIndex(c, n0, n1, n2, n3 color.Color) (int, bool) {
	a, b0, b1, b2, b3 := uint(c-1), uint(n0-1), uint(n1-1), uint(n2-1), uint(n3-1)
	return int((a<<12 | b0<<9 | b1<<6 | b2<<3 | b3) & (1<<15 - 1)), a|b0|b1|b2|b3 < TableColors
}
