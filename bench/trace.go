package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Spans of one operation
// share Op; Parent links a span to the span that caused it (0 for a root).
type span struct {
	ID     int
	Parent int
	Op     int64
	Lane   int // the goroutine or connection that ran it (a Chrome thread)
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
	Args   map[string]any
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil *tracer is the
// untraced mode: every method is a no-op, so one code path serves both.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span // spans[id-1]
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, op int64, parent, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds an already-timed root span, for intervals measured elsewhere
// (a client request).
func (t *tracer) record(name string, op int64, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Op: op, Lane: lane, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// rounds adds one "round" child span to the open span parent per round end
// in ends, each starting where the previous one ended.
func (t *tracer) rounds(parent int, ends []time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	start := p.Start
	for _, end := range ends {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: p.Op, Lane: p.Lane, Name: "round", Start: start, End: end})
		start = end
	}
}

// set attaches an argument to a span.
func (t *tracer) set(id int, key string, v any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Args == nil {
		s.Args = map[string]any{}
	}
	s.Args[key] = v
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover.  Children may overlap each other
// (parallel replicas), so the covered part is the union of their intervals.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped to
// the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, end time.Duration
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps) with the machine stamp under otherData.
func writeChromeTrace(path string, spans []span, st stamp) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"id": s.ID, "parent": s.Parent, "op": s.Op}
		for k, v := range s.Args {
			args[k] = v
		}
		events[i] = event{Name: s.Name, Cat: "bench", Ph: "X", Ts: micros(s.Start), Dur: micros(s.dur()), Pid: 1, Tid: s.Lane, Args: args}
	}
	doc := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
		OtherData       stamp   `json:"otherData"`
	}{events, "ms", st}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of the samples, interpolating linearly
// between the closest ranks; NaN for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// reportable says whether the q-quantile of n samples has at least ten
// samples beyond it, the least that makes a tail percentile worth reporting.
func reportable(n int, q float64) bool { return float64(n)*(1-q) >= 10-1e-9 }

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
