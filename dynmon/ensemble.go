package dynmon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/rng"
	"repro/internal/stats"
)

// EnsembleSpec is the declarative description of a Monte-Carlo ensemble: one
// system, one base initial-configuration family and one base run spec, run
// as Replicas independently seeded replicas per point of an optional
// parameter Sweep.  It is the wire form behind the Ensemble harness, the
// dynamomc CLI and the dynserve /v1/ensembles endpoint.
//
// Replica seeding is derived, not stored: replica r of point i draws its
// initial-configuration, schedule and noise seeds from counter-based hashes
// of (Seed, i, r), so the spec pins the entire ensemble — every trajectory
// and therefore every aggregate — bit for bit, independent of worker count,
// kernel tier and completion order.
type EnsembleSpec struct {
	System Spec `json:"system"`
	// Initial is the base configuration family.  Seeded families
	// ("bernoulli", "random", "greedy") get a fresh derived seed per
	// replica; deterministic families (e.g. "minimum") make every replica
	// start identically, which is only useful when the run itself is
	// stochastic.
	Initial InitialSpec `json:"initial"`
	// Run is the base run spec (wire fields only).  Schedule and Noise
	// seeds, when the sections are present, are re-derived per replica.
	Run RunSpec `json:"run"`
	// Replicas is the number of independent runs per sweep point.
	Replicas int `json:"replicas"`
	// Seed is the ensemble master seed every derived seed hashes from.
	Seed uint64 `json:"seed,omitempty"`
	// TakeoverFraction is the fraction of vertices the target color must
	// hold in a replica's final configuration to count as a takeover.
	// Omitted (or 1) means total takeover — the paper's monochromatic
	// dynamo criterion.  Noisy ensembles set a bulk threshold (e.g. 0.9)
	// instead: an ε-faulty run re-dents any monopoly with ~εN/K faults per
	// round, so exact monochromaticity is unreachable even when the target
	// has long since won the phase.
	TakeoverFraction float64 `json:"takeover_fraction,omitempty"`
	// Sweep, when present, maps one parameter axis; when absent the
	// ensemble is a single point estimating one takeover probability.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// SweepSpec names the swept parameter axis and its values.
type SweepSpec struct {
	// Axis is one of:
	//   "density"   — Initial.Density (requires the "bernoulli" family)
	//   "eps"       — Run.Noise.Eps (0 removes the noise at that point)
	//   "p"         — Run.Schedule.P (requires, or installs, uniform-async)
	//   "threshold" — the rule's activation threshold θ, via the
	//                 "threshold-θ" registry entries (integer values)
	Axis   string    `json:"axis"`
	Values []float64 `json:"values"`
}

// seed-derivation tags, one stream per consumer (cf. rules.FaultDraw).
const (
	ensTagInit uint64 = iota + 1
	ensTagSchedule
	ensTagNoise
)

// ParseEnsembleSpec decodes an ensemble spec, strictly: unknown fields,
// trailing data or an invalid spec are errors.
func ParseEnsembleSpec(data []byte) (*EnsembleSpec, error) {
	var es EnsembleSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&es); err != nil {
		return nil, fmt.Errorf("dynmon: parsing ensemble spec: %w", err)
	}
	if err := ensureEOF(dec); err != nil {
		return nil, err
	}
	if err := es.Validate(); err != nil {
		return nil, err
	}
	return &es, nil
}

// Validate checks the ensemble's structure without building anything.
func (es *EnsembleSpec) Validate() error {
	if err := es.System.Validate(); err != nil {
		return err
	}
	if es.Replicas < 1 {
		return fmt.Errorf("dynmon: ensemble needs replicas >= 1, have %d", es.Replicas)
	}
	if es.Initial.Config == "" && es.Initial.Cells == nil {
		return fmt.Errorf("dynmon: ensemble initial section needs a named config or explicit cells")
	}
	if !(es.TakeoverFraction >= 0 && es.TakeoverFraction <= 1) { // also rejects NaN
		return fmt.Errorf("dynmon: takeover fraction %v outside [0, 1]", es.TakeoverFraction)
	}
	if es.Sweep == nil {
		return nil
	}
	if len(es.Sweep.Values) == 0 {
		return fmt.Errorf("dynmon: ensemble sweep has no values")
	}
	switch es.Sweep.Axis {
	case "density":
		if es.Initial.Config != "bernoulli" {
			return fmt.Errorf("dynmon: the density axis sweeps the bernoulli family's seeding density; initial config is %q", es.Initial.Config)
		}
		for _, v := range es.Sweep.Values {
			if !(v >= 0 && v <= 1) { // also rejects NaN
				return fmt.Errorf("dynmon: density %v outside [0, 1]", v)
			}
		}
	case "eps":
		for _, v := range es.Sweep.Values {
			if !(v >= 0 && v <= 1) { // also rejects NaN
				return fmt.Errorf("dynmon: eps %v outside [0, 1]", v)
			}
		}
	case "p":
		if es.Run.Schedule != nil && es.Run.Schedule.Mode != "uniform-async" {
			return fmt.Errorf("dynmon: the p axis sweeps the uniform-async activation probability; schedule mode is %q", es.Run.Schedule.Mode)
		}
		for _, v := range es.Sweep.Values {
			if !(v > 0 && v <= 1) { // also rejects NaN
				return fmt.Errorf("dynmon: activation probability %v outside (0, 1]", v)
			}
		}
	case "threshold":
		for _, v := range es.Sweep.Values {
			if v != math.Trunc(v) || v < 1 || v > 4 {
				return fmt.Errorf("dynmon: threshold %v is not an integer in [1, 4]", v)
			}
		}
	default:
		return fmt.Errorf("dynmon: unknown sweep axis %q (want density, eps, p or threshold)", es.Sweep.Axis)
	}
	return nil
}

// JSON renders the spec as indented JSON with a trailing newline.
func (es *EnsembleSpec) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(es, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Digest returns a stable content address of the ensemble: "sha256:" plus
// the hex SHA-256 of the compact JSON of the canonicalized system spec, the
// run spec's wire fields and the remaining sections — the dynserve
// /v1/ensembles cache key.
func (es *EnsembleSpec) Digest() (string, error) {
	system, err := es.System.Canonical()
	if err != nil {
		return "", err
	}
	canonical := EnsembleSpec{
		System:           *system,
		Initial:          es.Initial,
		Run:              es.Run.wireClone(),
		Replicas:         es.Replicas,
		Seed:             es.Seed,
		TakeoverFraction: es.TakeoverFraction,
	}
	if es.Sweep != nil {
		sweep := SweepSpec{Axis: es.Sweep.Axis, Values: append([]float64(nil), es.Sweep.Values...)}
		canonical.Sweep = &sweep
	}
	return digestOf(&canonical)
}

// target is the color whose takeover the ensemble estimates (Run.Target,
// default 1 — the same convention as BatchSpec.Build).
func (es *EnsembleSpec) target() Color {
	if es.Run.Target != None {
		return es.Run.Target
	}
	return 1
}

// pointValues normalizes the sweep to a value list; a sweepless ensemble is
// one anonymous point.
func (es *EnsembleSpec) pointValues() []float64 {
	if es.Sweep == nil {
		return []float64{0}
	}
	return es.Sweep.Values
}

// pointSpec applies sweep value i to the base sections, returning the
// system, initial and run specs every replica of the point varies from.
func (es *EnsembleSpec) pointSpec(i int) (Spec, InitialSpec, RunSpec) {
	system, ispec, rs := es.System, es.Initial, es.Run.wireClone()
	if es.Sweep == nil {
		return system, ispec, rs
	}
	v := es.Sweep.Values[i]
	switch es.Sweep.Axis {
	case "density":
		ispec.Density = v
	case "eps":
		if v == 0 {
			rs.Noise = nil
		} else if rs.Noise == nil {
			rs.Noise = &NoiseSpec{Eps: v}
		} else {
			rs.Noise.Eps = v
		}
	case "p":
		if rs.Schedule == nil {
			rs.Schedule = &ScheduleSpec{Mode: "uniform-async"}
		}
		rs.Schedule.P = v
	case "threshold":
		system.Rule = fmt.Sprintf("threshold-%d", int(v))
	}
	return system, ispec, rs
}

// replicaSpec derives replica r of point i from the point's base sections:
// every seeded component — the initial configuration family, the schedule
// and the noise — gets its own counter-based seed, so replicas are
// independent streams of one reproducible ensemble.
func (es *EnsembleSpec) replicaSpec(i, r int, ispec InitialSpec, rs RunSpec) (InitialSpec, RunSpec) {
	ispec.Seed = rng.Hash(es.Seed, uint64(i), uint64(r), ensTagInit)
	out := rs.wireClone()
	if out.Schedule != nil {
		out.Schedule.Seed = rng.Hash(es.Seed, uint64(i), uint64(r), ensTagSchedule)
	}
	if out.Noise != nil {
		out.Noise.Seed = rng.Hash(es.Seed, uint64(i), uint64(r), ensTagNoise)
	}
	return ispec, out
}

// Ensemble executes a validated EnsembleSpec over a bounded worker pool.
// Build one with NewEnsemble; Run produces the EnsembleReport.
type Ensemble struct {
	spec    *EnsembleSpec
	digest  string
	workers int
}

// NewEnsemble validates the spec and prepares an executor running at most
// workers replicas concurrently (workers <= 0 selects GOMAXPROCS).
func NewEnsemble(spec *EnsembleSpec, workers int) (*Ensemble, error) {
	if spec == nil {
		return nil, fmt.Errorf("dynmon: nil ensemble spec")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	digest, err := spec.Digest()
	if err != nil {
		return nil, err
	}
	return &Ensemble{spec: spec, digest: digest, workers: workers}, nil
}

// Spec returns the ensemble's spec.
func (e *Ensemble) Spec() *EnsembleSpec { return e.spec }

// Digest returns the spec's content address.
func (e *Ensemble) Digest() string { return e.digest }

// Run executes every replica of every sweep point and aggregates the
// per-point takeover statistics.  The report is a pure function of the
// spec: deterministic replicas of a point ride the session's bit-sliced
// batch tier where eligible, stochastic ones run per replica, and either
// way the aggregation consumes results in replica order, so the report is
// byte-identical across worker counts and batch tiers.  When ctx is
// canceled the first incomplete point aborts the run.
func (e *Ensemble) Run(ctx context.Context) (*EnsembleReport, error) {
	es := e.spec
	target := es.target()
	values := es.pointValues()
	report := &EnsembleReport{
		Digest:   e.digest,
		Target:   target,
		Replicas: es.Replicas,
		Points:   make([]EnsemblePoint, len(values)),
	}
	if es.Sweep != nil {
		report.Axis = es.Sweep.Axis
	}

	// Systems are cached per rule name: only the threshold axis changes the
	// system between points, every other axis shares one engine (and its
	// adjacency tables) across the whole ensemble.
	sessions := map[string]*Session{}
	sessionFor := func(system Spec) (*Session, error) {
		if se, ok := sessions[system.Rule]; ok {
			return se, nil
		}
		sys, err := system.New()
		if err != nil {
			return nil, err
		}
		if report.System == "" {
			report.System = sys.String()
		}
		se := sys.NewSession(e.workers)
		sessions[system.Rule] = se
		return se, nil
	}

	for i := range values {
		system, ispec, rs := es.pointSpec(i)
		se, err := sessionFor(system)
		if err != nil {
			return nil, fmt.Errorf("dynmon: ensemble point %d: %w", i, err)
		}
		results, err := e.runPoint(ctx, se, i, ispec, rs, target)
		if err != nil {
			return nil, fmt.Errorf("dynmon: ensemble point %d: %w", i, err)
		}
		report.Points[i] = aggregatePoint(values[i], results, target, es.TakeoverFraction)
	}
	return report, nil
}

// runPoint executes the point's replicas and returns their results in
// replica order.  A point whose run spec is deterministic (no schedule, no
// noise) shares one RunSpec across replicas and goes through RunBatch —
// the bit-sliced tier where eligible; a stochastic point derives
// per-replica schedule/noise seeds and runs replica-at-a-time over the same
// worker pool.
func (e *Ensemble) runPoint(ctx context.Context, se *Session, i int, ispec InitialSpec, rs RunSpec, target Color) ([]*Result, error) {
	es := e.spec
	sys := se.System()
	initials := make([]*Coloring, es.Replicas)
	specs := make([]RunSpec, es.Replicas)
	for r := range initials {
		rispec, rrs := es.replicaSpec(i, r, ispec, rs)
		cons, err := sys.BuildInitial(&rispec, target)
		if err != nil {
			return nil, fmt.Errorf("replica %d: %w", r, err)
		}
		initials[r], specs[r] = cons.Coloring, rrs
	}
	if rs.Schedule == nil && rs.Noise == nil {
		// Deterministic dynamics: every replica shares the base run spec, so
		// the whole point is one batch (rides the bit-sliced tier when the
		// system qualifies).
		return se.RunBatch(ctx, initials, WithRunSpec(rs))
	}
	results := make([]*Result, es.Replicas)
	err := se.forEach(ctx, es.Replicas, func(ctx context.Context, r int) error {
		opt, err := se.batchOptions(specs[r])
		if err != nil {
			return err
		}
		res, err := sys.engine.RunContext(ctx, initials[r], opt)
		if err != nil {
			return err
		}
		results[r] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// aggregatePoint reduces a point's replica results to its statistics.  It
// walks results in replica order, so the aggregate is independent of the
// order replicas completed in.  fraction is the takeover criterion
// (EnsembleSpec.TakeoverFraction; 0 means 1, total takeover).
func aggregatePoint(value float64, results []*Result, target Color, fraction float64) EnsemblePoint {
	if fraction == 0 {
		fraction = 1
	}
	pt := EnsemblePoint{Value: value, Replicas: len(results)}
	var rounds stats.Welford
	var taken []int
	for _, res := range results {
		if res == nil {
			continue
		}
		tookOver := res.Monochromatic && res.FinalColor == target
		if !tookOver && fraction < 1 && res.Final != nil {
			tookOver = float64(res.Final.Count(target)) >= fraction*float64(res.Final.Dims().N())
		}
		switch {
		case tookOver:
			pt.Takeovers++
			rounds.Add(float64(res.Rounds))
			taken = append(taken, res.Rounds)
		case res.Cycle:
			pt.Cycles++
		case res.FixedPoint || res.Monochromatic:
			pt.FixedPoints++
		default:
			pt.Exhausted++
		}
	}
	if pt.Replicas > 0 {
		pt.TakeoverProb = float64(pt.Takeovers) / float64(pt.Replicas)
	}
	pt.CILow, pt.CIHigh = stats.Wilson(pt.Takeovers, pt.Replicas, stats.WilsonZ95)
	if len(taken) > 0 {
		sort.Ints(taken)
		pt.Rounds = RoundsSummary{
			Mean: rounds.Mean(),
			Std:  rounds.Std(),
			Min:  taken[0],
			Max:  taken[len(taken)-1],
			P50:  quantileInt(taken, 0.5),
			P90:  quantileInt(taken, 0.9),
		}
	}
	return pt
}

// quantileInt is the nearest-rank quantile of a sorted slice.
func quantileInt(sorted []int, q float64) int {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// EnsemblePoint is one sweep point's aggregate: the takeover probability of
// the target color with its 95% Wilson interval, the outcome census and the
// rounds-to-takeover distribution.
type EnsemblePoint struct {
	// Value is the swept parameter's value at this point (0 for a sweepless
	// ensemble).
	Value    float64 `json:"value"`
	Replicas int     `json:"replicas"`
	// Takeovers counts replicas that ended monochromatic in the target
	// color; TakeoverProb is the point estimate Takeovers/Replicas and
	// [CILow, CIHigh] its 95% Wilson score interval.
	Takeovers    int     `json:"takeovers"`
	TakeoverProb float64 `json:"takeover_prob"`
	CILow        float64 `json:"ci_low"`
	CIHigh       float64 `json:"ci_high"`
	// FixedPoints counts replicas frozen short of takeover (including
	// monochromatic in a non-target color), Cycles period-2 oscillations,
	// Exhausted replicas that hit the round budget still moving.
	FixedPoints int `json:"fixed_points"`
	Cycles      int `json:"cycles"`
	Exhausted   int `json:"exhausted"`
	// Rounds summarizes rounds-to-takeover over the taking-over replicas
	// (zero when none took over).
	Rounds RoundsSummary `json:"rounds"`
}

// RoundsSummary is the rounds-to-takeover distribution of one point.
type RoundsSummary struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  int     `json:"min"`
	Max  int     `json:"max"`
	P50  int     `json:"p50"`
	P90  int     `json:"p90"`
}

// EnsembleReport is the aggregate of a whole ensemble run: one EnsemblePoint
// per sweep value, in sweep order.  It carries no per-replica data — the
// aggregation is the point — and is a pure function of the spec (see
// Ensemble.Run), which is what lets dynserve cache reports by spec digest.
type EnsembleReport struct {
	// Digest is the content address of the spec that produced the report.
	Digest string `json:"digest"`
	// System describes the system the ensemble ran on.
	System string `json:"system"`
	// Axis names the swept parameter ("" for a sweepless ensemble).
	Axis string `json:"axis,omitempty"`
	// Target is the color whose takeover the ensemble estimated.
	Target Color `json:"target"`
	// Replicas is the per-point replica count.
	Replicas int             `json:"replicas"`
	Points   []EnsemblePoint `json:"points"`
}

// JSON renders the report as indented JSON with a trailing newline.
func (r *EnsembleReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// CSV renders the report as one header line plus one row per point — the
// form the plotting scripts and the dynamomc -format csv flag consume.
func (r *EnsembleReport) CSV() string {
	var b strings.Builder
	axis := r.Axis
	if axis == "" {
		axis = "value"
	}
	fmt.Fprintf(&b, "%s,replicas,takeovers,takeover_prob,ci_low,ci_high,fixed_points,cycles,exhausted,rounds_mean,rounds_std,rounds_min,rounds_p50,rounds_p90,rounds_max\n", axis)
	for _, pt := range r.Points {
		fmt.Fprintf(&b, "%g,%d,%d,%.6f,%.6f,%.6f,%d,%d,%d,%.3f,%.3f,%d,%d,%d,%d\n",
			pt.Value, pt.Replicas, pt.Takeovers, pt.TakeoverProb, pt.CILow, pt.CIHigh,
			pt.FixedPoints, pt.Cycles, pt.Exhausted,
			pt.Rounds.Mean, pt.Rounds.Std, pt.Rounds.Min, pt.Rounds.P50, pt.Rounds.P90, pt.Rounds.Max)
	}
	return b.String()
}
