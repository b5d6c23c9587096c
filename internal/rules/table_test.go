package rules

import (
	"testing"

	"repro/internal/color"
)

// portRule answers a weighted sum of the current color and the four
// neighbor colors in port order, so its table tells every position of the
// index apart: swapping any two fields, or feeding one field into
// another's bits, changes the answer on some tuple.
type portRule struct{}

func (portRule) Name() string { return "port" }

func (portRule) Next(c color.Color, ns []color.Color) color.Color {
	return 1 + (c+2*ns[0]+3*ns[1]+5*ns[2]+7*ns[3])%8
}

// oneOffRule answers SMP except on the tuple (2; 1, 2, 3, 4), where it
// answers bad.
type oneOffRule struct{ bad color.Color }

func (oneOffRule) Name() string { return "one-off" }

func (r oneOffRule) Next(c color.Color, ns []color.Color) color.Color {
	if c == 2 && ns[0] == 1 && ns[1] == 2 && ns[2] == 3 && ns[3] == 4 {
		return r.bad
	}
	return SMP{}.Next(c, ns)
}

// TestTableMatchesNext pins every slot of every registered rule's table
// (and of portRule's) to Next on its tuple: each ordered tuple over
// {1..8} must index a slot no other tuple indexes, and the slot must hold
// Next's answer.
func TestTableMatchesNext(t *testing.T) {
	subjects := []Rule{portRule{}}
	for _, name := range RegisteredNames() {
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, r)
	}
	ns := make([]color.Color, 4)
	for _, r := range subjects {
		tab := Tabulate(r)
		if tab == nil {
			t.Fatalf("%s: no table", r.Name())
		}
		var seen Table
		for c := color.Color(1); c <= TableColors; c++ {
			for i := 0; i < 1<<12; i++ {
				for p := range ns {
					ns[p] = color.Color(i>>(3*p)&7 + 1)
				}
				slot, ok := TableIndex(c, ns[0], ns[1], ns[2], ns[3])
				if !ok {
					t.Fatalf("(%d; %v) is in range, TableIndex says not", c, ns)
				}
				if seen[slot]++; seen[slot] > 1 {
					t.Fatalf("(%d; %v) indexes slot %d, which another tuple indexes too", c, ns, slot)
				}
				if got, want := color.Color(tab[slot]), r.Next(c, ns); got != want {
					t.Fatalf("%s: table gives %d on (%d; %v), Next gives %d", r.Name(), got, c, ns, want)
				}
			}
		}
	}
}

// TestTableIndexRange checks that a color outside {1..8} in any of the
// five positions is out of the table's range, beside colors 1 (whose
// minus-one adds no bit to the OR) and beside other colors.
func TestTableIndexRange(t *testing.T) {
	for _, base := range [][5]color.Color{{1, 1, 1, 1, 1}, {1, 8, 3, 5, 2}} {
		for _, bad := range []color.Color{0, -1, 9, 16, 256} {
			for pos := range base {
				cs := base
				cs[pos] = bad
				if _, ok := TableIndex(cs[0], cs[1], cs[2], cs[3], cs[4]); ok {
					t.Errorf("%v: color %d at position %d passes the range check", cs, bad, pos)
				}
			}
		}
	}
}

// TestTabulateRefusesNonByteAnswers checks that one answer outside 1..255
// leaves the rule without a table.
func TestTabulateRefusesNonByteAnswers(t *testing.T) {
	for _, bad := range []color.Color{0, 256} {
		if Tabulate(oneOffRule{bad: bad}) != nil {
			t.Errorf("an answer of %d on one tuple still got a table", bad)
		}
	}
	if Tabulate(oneOffRule{bad: 255}) == nil {
		t.Error("an answer of 255 got no table")
	}
}
