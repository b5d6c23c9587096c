package sim

import (
	"errors"
	"fmt"

	"repro/internal/color"
	"repro/internal/rng"
	"repro/internal/rules"
)

// ErrStochasticSweepOnly is the error (wrapped) returned by stochastic runs —
// a non-synchronous Schedule or an active Noise — that force a kernel with
// no stochastic form.  The frontier tier assumes a vertex can only change
// when a neighbor changed color in the previous round; under a masked
// schedule a skipped vertex must still be re-evaluated when its clock fires,
// and under noise any vertex can misfire at any round.  The bitplane tier
// evaluates every vertex every round, so it runs synchronous ε-faulty runs
// (fault masks applied per word, see Bitplane) but no schedule.  Every other
// stochastic run sweeps every vertex every round, sequentially or striped
// (or every vertex once per sweep, for the sequential schedules, which
// cannot be striped).
var ErrStochasticSweepOnly = errors.New("sim: stochastic runs require full-sweep semantics")

// ScheduleKind identifies an update discipline of the engine.
type ScheduleKind int

const (
	// ScheduleSynchronous is the paper's execution model and the default:
	// every vertex applies the rule every round, all simultaneously.
	ScheduleSynchronous ScheduleKind = iota
	// ScheduleUniformAsync activates each vertex independently with
	// probability P each round (the α-asynchronous model): active vertices
	// apply the rule simultaneously to the previous configuration, inactive
	// vertices keep their color.
	ScheduleUniformAsync
	// ScheduleSequential visits every vertex once per round in raster order,
	// committing each new color immediately so later vertices observe earlier
	// updates.
	ScheduleSequential
	// ScheduleRandomSequential is ScheduleSequential with a fresh seeded
	// permutation each round.
	ScheduleRandomSequential
	// ScheduleVertexClock gives each vertex its own deterministic clock: a
	// per-vertex period in {1..Period} and phase, both derived from Seed, and
	// the vertex applies the rule only on rounds matching its phase.  It
	// models heterogeneous update rates without any shared clock.
	ScheduleVertexClock
)

// String returns the schedule name used in specs and experiment tables.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleSynchronous:
		return "synchronous"
	case ScheduleUniformAsync:
		return "uniform-async"
	case ScheduleSequential:
		return "sequential"
	case ScheduleRandomSequential:
		return "random-sequential"
	case ScheduleVertexClock:
		return "vertex-clock"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ParseScheduleKind resolves a schedule name ("" means synchronous), the
// inverse of String.
func ParseScheduleKind(name string) (ScheduleKind, error) {
	switch name {
	case "", "synchronous":
		return ScheduleSynchronous, nil
	case "uniform-async":
		return ScheduleUniformAsync, nil
	case "sequential":
		return ScheduleSequential, nil
	case "random-sequential":
		return ScheduleRandomSequential, nil
	case "vertex-clock":
		return ScheduleVertexClock, nil
	default:
		return ScheduleSynchronous, fmt.Errorf("sim: unknown schedule %q (want synchronous, uniform-async, sequential, random-sequential or vertex-clock)", name)
	}
}

// Schedule selects the update discipline of a run (Options.Schedule).  All
// randomness is counter-based — pure rng.Hash functions of (Seed, round,
// vertex) — so a schedule carries no mutable state: the same seed produces
// the same activation pattern under any worker count, any kernel tier and
// across any checkpoint/resume boundary.
type Schedule struct {
	// Kind is the update discipline; the zero value is synchronous.
	Kind ScheduleKind
	// P is the per-round activation probability of ScheduleUniformAsync, in
	// (0, 1]; zero selects the default 0.5.  Other kinds ignore it.
	P float64
	// Period bounds the per-vertex period of ScheduleVertexClock (each vertex
	// draws a period in {1..Period}); zero selects the default 4.  Other
	// kinds ignore it.
	Period int
	// Seed selects the activation stream (and the sweep permutations of
	// ScheduleRandomSequential).
	Seed uint64
}

// normalized returns the schedule with defaults filled in.
func (s Schedule) normalized() Schedule {
	if s.Kind == ScheduleUniformAsync && s.P == 0 {
		s.P = 0.5
	}
	if s.Kind == ScheduleVertexClock && s.Period == 0 {
		s.Period = 4
	}
	return s
}

// validate checks a normalized schedule.
func (s Schedule) validate() error {
	switch s.Kind {
	case ScheduleSynchronous, ScheduleSequential, ScheduleRandomSequential:
	case ScheduleUniformAsync:
		if !(s.P > 0 && s.P <= 1) { // also rejects NaN
			return fmt.Errorf("sim: uniform-async activation probability %v outside (0, 1]", s.P)
		}
	case ScheduleVertexClock:
		if s.Period < 1 {
			return fmt.Errorf("sim: vertex-clock period %d < 1", s.Period)
		}
	default:
		return fmt.Errorf("sim: unknown schedule kind %d", int(s.Kind))
	}
	return nil
}

// inPlace reports whether the schedule commits updates within a sweep
// (sequential kinds), which pins the run to one worker.
func (s Schedule) inPlace() bool {
	return s.Kind == ScheduleSequential || s.Kind == ScheduleRandomSequential
}

// activation is a masked schedule's draws for one round, with all but the
// vertex folded in ahead, so a vertex costs one mix of its key, rng.Key(v).
// thresh is ⌈P·2⁵³⌉ under uniform-async.
type activation struct {
	*Schedule
	pre           rng.Prefix
	thresh, round uint64
}

// activation returns the schedule's draws for the given round.
func (s *Schedule) activation(round uint64) activation {
	a := activation{Schedule: s, pre: rng.NewPrefix(s.Seed), round: round}
	if s.Kind == ScheduleUniformAsync {
		a.pre, a.thresh = a.pre.Then(round), rng.UnitThreshold(s.P)
	}
	return a
}

// active reports whether the vertex with the given key applies the rule
// this round: under uniform-async when rng.Unit(rng.Hash(Seed, round, v))
// < P, in exact integer form; under the vertex clock when the round matches
// the phase of the period drawn from rng.Hash(Seed, v).
func (a *activation) active(key uint64) bool {
	switch a.Kind {
	case ScheduleUniformAsync:
		return rng.UnitBelow(a.pre.ThenKey(key).Sum(), a.thresh) == 1
	case ScheduleVertexClock:
		h := a.pre.ThenKey(key).Sum()
		period := 1 + h%uint64(a.Period)
		return a.round%period == (h>>32)%period
	default:
		return true
	}
}

// Noise makes every rule application ε-faulty (Options.Noise): with
// probability Eps the computed color is replaced by a uniform draw from the
// whole palette {1..Colors}, so a fault changes the color with probability
// Eps·(Colors−1)/Colors.  The draws are rules.FaultRound — counter-based on
// (Seed, round, vertex), each vertex named by its key from the engine's
// vertex keys — so a noisy run is exactly as reproducible as a
// deterministic one.
type Noise struct {
	// Eps is the per-application fault probability in [0, 1]; zero disables
	// the noise entirely.
	Eps float64
	// Colors is the palette size faulted applications draw from.
	Colors int
	// Seed selects the fault stream.
	Seed uint64
}

// validate checks an active noise model.
func (n Noise) validate() error {
	if !(n.Eps >= 0 && n.Eps <= 1) { // also rejects NaN
		return fmt.Errorf("sim: noise eps %v outside [0, 1]", n.Eps)
	}
	if n.Eps > 0 && n.Colors < 1 {
		return fmt.Errorf("sim: noise over a %d-color palette", n.Colors)
	}
	return nil
}

// round returns the fault draws of one round.
func (n *Noise) round(r uint64) rules.FaultRound {
	return rules.NewFaultRound(n.Seed, r, n.Eps, n.Colors)
}

// stochasticParams normalizes and validates the run's Schedule and Noise
// options.  It returns (nil, nil, nil) for a plain deterministic synchronous
// run; otherwise sched is the normalized schedule (synchronous when only
// noise is present) and noise is non-nil only when Eps > 0.
func (o Options) stochasticParams() (*Schedule, *Noise, error) {
	var sched Schedule
	if o.Schedule != nil {
		sched = o.Schedule.normalized()
		if err := sched.validate(); err != nil {
			return nil, nil, err
		}
	}
	var noise *Noise
	if o.Noise != nil {
		if err := o.Noise.validate(); err != nil {
			return nil, nil, err
		}
		if o.Noise.Eps > 0 {
			n := *o.Noise
			noise = &n
		}
	}
	if sched.Kind == ScheduleSynchronous && noise == nil {
		return nil, nil, nil
	}
	return &sched, noise, nil
}

// stepRangeStochastic is the masked stochastic inner loop: vertex v applies
// the rule (through next, with the rule table tab when not nil) only when
// the schedule activates it this round (keeping its color otherwise), and
// the computed color passes through the ε-fault draw when noise is active.
// keys are the engine's vertex keys, which both draws read.  Reads come
// from cur, writes go to next, so stripes parallelize exactly like the
// synchronous sweep; all randomness is counter-based, making the result
// independent of the stripe partition.
func (e *Engine) stepRangeStochastic(round int, sched *Schedule, noise *Noise, keys []uint64, tab *rules.Table, cur, next []color.Color, lo, hi int, scratch []color.Color) int {
	r := uint64(round)
	act := sched.activation(r)
	var faults rules.FaultRound
	if noise != nil {
		faults = noise.round(r)
	}
	changed := 0
	for v := lo; v < hi; v++ {
		cv := cur[v]
		if !act.active(keys[v]) {
			next[v] = cv
			continue
		}
		nc := e.next(tab, cur, v, &scratch)
		if noise != nil {
			if c, ok := faults.Fault(keys[v]); ok {
				nc = c
			}
		}
		next[v] = nc
		if nc != cv {
			changed++
		}
	}
	return changed
}

// stepInPlace is the round of the sequential schedules: next starts as a
// copy of cur, and each vertex in turn (raster order, or the round's
// permutation under ScheduleRandomSequential) recomputes its color against
// next's live cells, so later vertices observe earlier commits and the
// round cannot be striped.  Every random draw is counter-based, so a
// resumed run continues bit-identically from (configuration, round).
// keys are the engine's vertex keys (read only under noise), tab is the
// rule table next reads (or nil), and order backs the permutation.
func (e *Engine) stepInPlace(round int, sched *Schedule, noise *Noise, keys []uint64, tab *rules.Table, cur, next []color.Color, order *[]int, scratch []color.Color) int {
	copy(next, cur)
	r := uint64(round)
	var perm []int
	if sched.Kind == ScheduleRandomSequential {
		perm = sched.permutation(r, len(next), order)
	}
	var faults rules.FaultRound
	if noise != nil {
		faults = noise.round(r)
	}
	changed := 0
	for i := range next {
		v := i
		if perm != nil {
			v = perm[i]
		}
		cv := next[v]
		nc := e.next(tab, next, v, &scratch)
		if noise != nil {
			if c, ok := faults.Fault(keys[v]); ok {
				nc = c
			}
		}
		if nc != cv {
			next[v] = nc
			changed++
		}
	}
	return changed
}

// permutation returns the round's random-sequential sweep order over n
// vertices in *buf (grown as needed), derived statelessly from
// (Seed, round) so any resumed run replays the identical order.
func (s *Schedule) permutation(round uint64, n int, buf *[]int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	order := (*buf)[:n]
	for i := range order {
		order[i] = i
	}
	src := rng.New(rng.Hash(s.Seed, round))
	src.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
