package dynmon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/color"
	"repro/internal/rng"
	"repro/internal/sim"
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

// maxEnsembleRuns caps replicas × sweep points: Run allocates one outcome
// record per run up front, so the cap keeps that table at tens of MiB.
const maxEnsembleRuns = 1 << 20

// ErrEnsembleTooLarge reports an ensemble of more than 2^20 runs (replicas
// × sweep points).  Callers branch on it with errors.Is.
var ErrEnsembleTooLarge = fmt.Errorf("dynmon: ensemble exceeds %d runs (replicas × sweep points)", maxEnsembleRuns)

// seed-derivation tags, one stream per consumer (cf. rules.FaultRound).
const (
	ensTagInit uint64 = iota + 1
	ensTagSchedule
	ensTagNoise
)

// ParseEnsembleSpec decodes an ensemble spec, strictly: unknown fields,
// trailing data or an invalid spec are errors.
func ParseEnsembleSpec(data []byte) (*EnsembleSpec, error) {
	return parseStrict(data, "ensemble spec", (*EnsembleSpec).Validate)
}

// Validate checks the ensemble's structure without building anything.
func (es *EnsembleSpec) Validate() error {
	if err := es.System.Validate(); err != nil {
		return err
	}
	if es.Replicas < 1 {
		return fmt.Errorf("dynmon: ensemble needs replicas >= 1, have %d", es.Replicas)
	}
	if points := len(es.pointValues()); points > 0 && es.Replicas > maxEnsembleRuns/points {
		return fmt.Errorf("%w: %d replicas × %d points", ErrEnsembleTooLarge, es.Replicas, points)
	}
	if es.Initial.Config == "" && es.Initial.Cells == nil {
		return fmt.Errorf("dynmon: ensemble initial section needs a named config or explicit cells")
	}
	if !(es.TakeoverFraction >= 0 && es.TakeoverFraction <= 1) { // also rejects NaN
		return fmt.Errorf("dynmon: takeover fraction %v outside [0, 1]", es.TakeoverFraction)
	}
	if es.Initial.Config == "bernoulli" && (es.Sweep == nil || es.Sweep.Axis != "density") {
		if d := es.Initial.Density; !(d >= 0 && d <= 1) { // also rejects NaN
			return fmt.Errorf("dynmon: bernoulli density %v outside [0, 1]", d)
		}
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
// workers units — a tile of replicas or one replica — concurrently
// (workers <= 0 selects GOMAXPROCS).
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Ensemble{spec: spec, digest: digest, workers: workers}, nil
}

// Spec returns the ensemble's spec.
func (e *Ensemble) Spec() *EnsembleSpec { return e.spec }

// Digest returns the spec's content address.
func (e *Ensemble) Digest() string { return e.digest }

// ensemblePoint is a sweep point ready to run: its system, the base
// sections its replicas derive from and the engine options of the base run
// section, which every replica of a tile shares.
type ensemblePoint struct {
	sys   *System
	ispec InitialSpec
	rs    RunSpec
	opt   sim.Options
}

// ensembleUnit is the replicas [lo, hi) of one point, built and stepped by
// one worker: several replicas of a deterministic point form a bit-sliced
// tile, and a single replica runs alone.
type ensembleUnit struct{ point, lo, hi int }

// Run executes every replica of every sweep point and aggregates the
// per-point takeover statistics.  One pool of workers runs the whole
// ensemble.  Its units are tiles of up to 64 replicas of a deterministic
// point (no schedule, no noise), stepped together on the bit-sliced tier,
// and single replicas of stochastic points; a tile the tier refuses (a
// replica using a third color, say) is queued again as single replicas.
// A unit derives its replicas' seeds, builds their initial states and
// steps them.  A tile of bernoulli replicas on the palette {1, 2} draws
// them straight into the sliced tier's lane words, one bit per replica and
// vertex, with no coloring built; any other unit builds each replica's
// coloring (a tile then packs them).  Each replica is reduced where it
// finishes to an outcome record in a slot indexed by (point, replica):
// rounds, stop reason, final color and the number of target-colored
// vertices, nothing else.  The aggregation reads the slots in replica
// order, so the report is a pure function of the spec, byte-identical
// across worker counts, tiers and completion orders.  A replica that
// cannot be built or run fails the ensemble with the error of the lowest
// failing (point, replica), whatever the worker count.  When ctx is
// canceled the pool drains and Run returns the context's error.
func (e *Ensemble) Run(ctx context.Context) (*EnsembleReport, error) {
	es := e.spec
	target := es.target()
	values := es.pointValues()
	points, err := e.points()
	if err != nil {
		return nil, err
	}
	outcomes, err := e.runUnits(ctx, points, target)
	if err != nil {
		return nil, err
	}
	report := &EnsembleReport{
		Digest:   e.digest,
		System:   points[0].sys.String(),
		Target:   target,
		Replicas: es.Replicas,
		Points:   make([]EnsemblePoint, len(values)),
	}
	if es.Sweep != nil {
		report.Axis = es.Sweep.Axis
	}
	n := es.Replicas
	for i, p := range points {
		report.Points[i] = aggregatePoint(values[i], outcomes[i*n:(i+1)*n], target, es.TakeoverFraction, p.sys.Dims().N())
	}
	return report, nil
}

// points prepares every sweep point.  Systems are cached per rule name:
// only the threshold axis changes the system between points, every other
// axis shares one engine (and its adjacency tables) across the whole
// ensemble.
func (e *Ensemble) points() ([]ensemblePoint, error) {
	es := e.spec
	systems := map[string]*System{}
	points := make([]ensemblePoint, len(es.pointValues()))
	for i := range points {
		system, ispec, rs := es.pointSpec(i)
		sys, ok := systems[system.Rule]
		if !ok {
			var err error
			if sys, err = system.New(); err != nil {
				return nil, fmt.Errorf("dynmon: ensemble point %d: %w", i, err)
			}
			systems[system.Rule] = sys
		}
		opt, err := sys.batchOptions(rs)
		if err != nil {
			return nil, fmt.Errorf("dynmon: ensemble point %d: %w", i, err)
		}
		points[i] = ensemblePoint{sys: sys, ispec: ispec, rs: rs, opt: opt}
	}
	return points, nil
}

// runUnits runs every replica of every point on one pool and returns their
// outcomes, replica r of point i in slot i*Replicas + r.
func (e *Ensemble) runUnits(ctx context.Context, points []ensemblePoint, target Color) ([]sim.Outcome, error) {
	es := e.spec
	n := es.Replicas
	var units []ensembleUnit
	for i, p := range points {
		width := 1
		if p.rs.Schedule == nil && p.rs.Noise == nil {
			width = sim.BitsliceLanes
		}
		for lo := 0; lo < n; lo += width {
			units = append(units, ensembleUnit{point: i, lo: lo, hi: min(lo+width, n)})
		}
	}

	outcomes := make([]sim.Outcome, len(points)*n)
	var (
		mu       sync.Mutex
		refused  []ensembleUnit
		failSlot = len(outcomes) // slot of the lowest failing replica so far
		failErr  error
	)
	// fail records replica r of point i as failed unless a lower slot
	// already did.  A unit whose first slot lies above the lowest failure
	// cannot change the error, so it is skipped.
	fail := func(i, r int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if slot := i*n + r; slot < failSlot {
			failSlot, failErr = slot, fmt.Errorf("dynmon: ensemble point %d: replica %d: %w", i, r, err)
		}
	}
	skip := func(u ensembleUnit) bool {
		mu.Lock()
		defer mu.Unlock()
		return failSlot < u.point*n+u.lo
	}
	work := func(ctx context.Context, u ensembleUnit) error {
		if skip(u) {
			return nil
		}
		p := &points[u.point]
		slots := outcomes[u.point*n+u.lo : u.point*n+u.hi]
		initials := make([]*Coloring, len(slots))
		fill := func(words []uint64) bool { return color.PackLanes(initials, words) }
		if len(slots) > 1 && p.sys.laneDrawn(&p.ispec, target) {
			seeds := make([]uint64, len(slots))
			for r := range seeds {
				ispec, _ := es.replicaSpec(u.point, u.lo+r, p.ispec, p.rs)
				seeds[r] = ispec.Seed
			}
			fill = func(words []uint64) bool { return bernoulliLanes(&p.ispec, target, seeds, words) }
		} else {
			for r := u.lo; r < u.hi; r++ {
				ispec, _ := es.replicaSpec(u.point, r, p.ispec, p.rs)
				cons, err := p.sys.construct(&ispec, target)
				if err != nil {
					fail(u.point, r, err)
					return nil
				}
				initials[r-u.lo] = cons.Coloring
			}
		}
		if len(slots) > 1 {
			err := p.sys.engine.RunBatchOutcomes(ctx, len(slots), fill, p.opt, target, slots)
			if errors.Is(err, sim.ErrBitsliceIneligible) {
				mu.Lock()
				for r := u.lo; r < u.hi; r++ {
					refused = append(refused, ensembleUnit{point: u.point, lo: r, hi: r + 1})
				}
				mu.Unlock()
				return nil
			}
			return err
		}
		// A lone replica steps on the per-run tiers with its own seeds and
		// no target trace: the outcome reads neither FirstReached nor
		// MonotoneTarget, the only things Target feeds.
		_, rs := es.replicaSpec(u.point, u.lo, p.ispec, p.rs)
		opt, err := p.sys.batchOptions(rs)
		if err != nil {
			fail(u.point, u.lo, err)
			return nil
		}
		opt.Target = None
		res, err := p.sys.engine.RunContext(ctx, initials[0], opt)
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			fail(u.point, u.lo, err)
			return nil
		}
		slots[0] = res.Outcome(target)
		return nil
	}
	for len(units) > 0 {
		err := forEach(ctx, e.workers, len(units), func(ctx context.Context, j int) error {
			return work(ctx, units[j])
		})
		if err != nil {
			return nil, fmt.Errorf("dynmon: ensemble: %w", err)
		}
		units, refused = refused, nil
	}
	return outcomes, failErr
}

// aggregatePoint reduces a point's replica outcomes to its statistics.  It
// walks them in replica order, so the aggregate is independent of the
// order replicas completed in.  fraction is the takeover criterion
// (EnsembleSpec.TakeoverFraction; 0 means 1, total takeover) over the
// substrate's n vertices.
func aggregatePoint(value float64, outcomes []sim.Outcome, target Color, fraction float64, n int) EnsemblePoint {
	if fraction == 0 {
		fraction = 1
	}
	pt := EnsemblePoint{Value: value, Replicas: len(outcomes)}
	var rounds stats.Welford
	var taken []int
	for _, o := range outcomes {
		tookOver := o.Monochromatic && o.FinalColor == target
		if !tookOver && fraction < 1 {
			tookOver = float64(o.Count) >= fraction*float64(n)
		}
		switch {
		case tookOver:
			pt.Takeovers++
			rounds.Add(float64(o.Rounds))
			taken = append(taken, o.Rounds)
		case o.Cycle:
			pt.Cycles++
		case o.FixedPoint || o.Monochromatic:
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
