package sim

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// randomWireResult draws a Result over every wire field, with the cases
// encoding/json treats apart: nil and empty first_reached, changes_per_round
// and history, nil final and nil history entries, -1 and multi-digit values
// up to the int extremes, colors 0 and 255, and the 1×n layout of graph
// colorings.
func randomWireResult(src *rng.Source) *Result {
	value := func() int {
		switch src.Intn(8) {
		case 0:
			return -1
		case 1:
			return 10 + src.Intn(90)
		case 2:
			return 100 + src.Intn(1e6)
		case 3:
			return []int{math.MinInt, -2, 100, math.MaxInt}[src.Intn(4)]
		}
		return src.Intn(10)
	}
	ints := func() []int {
		switch src.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		vs := make([]int, 1+src.Intn(30))
		for i := range vs {
			vs[i] = value()
		}
		return vs
	}
	col := func() color.Color {
		if src.Intn(3) == 0 {
			return []color.Color{0, 255}[src.Intn(2)]
		}
		return color.Color(src.Intn(256))
	}
	coloring := func() *color.Coloring {
		if src.Intn(4) == 0 {
			return nil
		}
		c := color.NewColoring(grid.Dims{Rows: 1 + src.Intn(3), Cols: 1 + src.Intn(6)}, color.None)
		for v := 0; v < c.N(); v++ {
			c.Set(v, col())
		}
		return c
	}
	r := &Result{
		Rounds:          value(),
		FixedPoint:      src.Intn(2) == 0,
		Cycle:           src.Intn(2) == 0,
		Monochromatic:   src.Intn(2) == 0,
		FinalColor:      col(),
		MonotoneTarget:  src.Intn(2) == 0,
		FirstReached:    ints(),
		ChangesPerRound: ints(),
		Final:           coloring(),
	}
	switch src.Intn(4) {
	case 0:
	case 1:
		r.History = []*color.Coloring{}
	default:
		r.History = make([]*color.Coloring, 1+src.Intn(4))
		for i := range r.History {
			r.History[i] = coloring()
		}
	}
	return r
}

// TestResultAppendJSONMatchesMarshal pins AppendJSON to its oracle,
// json.Marshal on the struct tags: over random Results and over real runs
// that record their history, the appended bytes (after a prefix AppendJSON
// must keep) equal the marshaled ones.
func TestResultAppendJSONMatchesMarshal(t *testing.T) {
	check := func(label string, r *Result) {
		t.Helper()
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.AppendJSON([]byte("x")); string(got) != "x"+string(want) {
			t.Fatalf("%s: AppendJSON differs from json.Marshal\n got %s\nwant x%s", label, got, want)
		}
	}
	src := rng.New(29)
	for i := 0; i < 5000; i++ {
		check("random", randomWireResult(src))
	}
	for _, kind := range grid.Kinds() {
		topo := grid.MustNew(kind, 6, 7)
		res := NewEngine(topo, rules.SMP{}).Run(randomTestColoring(3, topo.Dims(), 3),
			Options{Target: 2, MaxRounds: 40, DetectCycles: true, RecordHistory: true})
		check(kind.String(), res)
	}
}

// TestResultWireFieldsAreGenerated walks Result's wire fields, every
// exported field encoding/json writes: the differential test above only
// sees a field randomWireResult sets, so a field added to the wire fails
// here until the generator, and with it AppendJSON, learns it.
func TestResultWireFieldsAreGenerated(t *testing.T) {
	rt := reflect.TypeOf(Result{})
	set := make([]bool, rt.NumField())
	src := rng.New(31)
	for i := 0; i < 200; i++ {
		rv := reflect.ValueOf(randomWireResult(src)).Elem()
		for f := range set {
			set[f] = set[f] || !rv.Field(f).IsZero()
		}
	}
	for f := range set {
		field := rt.Field(f)
		if !field.IsExported() || field.Tag.Get("json") == "-" {
			continue
		}
		if !set[f] {
			t.Errorf("Result.%s is on the wire but randomWireResult never sets it", field.Name)
		}
	}
}
