package graphs

import (
	"context"

	"repro/internal/color"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// GeneralizedSMP is the degree-aware extension of the paper's SMP-Protocol;
// it lives in internal/rules (registered as "generalized-smp") and is
// re-exported here for the general-graph callers.
type GeneralizedSMP = rules.GeneralizedSMP

// RunResult describes a finished run of a rule over a general graph.
type RunResult struct {
	// Rounds executed (bounded by the caller's budget).
	Rounds int
	// FixedPoint reports that the last round changed nothing.
	FixedPoint bool
	// Final is the final coloring.
	Final *Coloring
	// TargetCount is the number of vertices holding the target color at the
	// end (0 if no target was supplied).
	TargetCount int
	// Engine is the full engine result behind the run, for callers that
	// want the change trace, kernel tier or monochromatic flags.
	Engine *sim.Result
}

// EngineFor returns the simulation engine for the graph's current view and
// the rule — the same tiered engine (dirty frontier, striped parallel
// sweeps, pooled zero-allocation buffers) that steps the tori, memoized on
// the view so repeated runs share pooled buffers and dropped graphs free
// everything.  Callers that want non-default run options go through it
// directly:
//
//	res, err := g.EngineFor(rule).RunContext(ctx, initial, opts)
func (g *Graph) EngineFor(rule rules.Rule) *sim.Engine {
	return g.View().EngineFor(rule)
}

// Run evolves the coloring synchronously under the rule for at most
// maxRounds rounds (<= 0 selects the graph's degree-aware
// DefaultMaxRounds), stopping early at a fixed point.  It executes on the
// tiered simulation engine — the dirty-frontier stepper by default — and is
// bit-identical, round for round, to the full-sweep loop it replaced
// (pinned by TestRunMatchesLegacyLoop).  The initial coloring is not
// modified, and repeated runs over the same graph allocate nothing beyond
// the result through the engine's pooled buffers.
func Run(g *Graph, rule rules.Rule, initial *Coloring, target color.Color, maxRounds int) *RunResult {
	res := g.EngineFor(rule).Run(initial, sim.Options{MaxRounds: maxRounds})
	out := &RunResult{
		Rounds:     res.Rounds,
		FixedPoint: res.FixedPoint,
		Final:      res.Final,
		Engine:     res,
	}
	if target != color.None {
		out.TargetCount = res.Final.Count(target)
	}
	return out
}

// SeedTopByDegree returns a coloring in which the `size` highest-degree
// vertices carry the target color and every other vertex carries background.
// It is the classic degree heuristic for target set selection.
func SeedTopByDegree(g *Graph, size int, target, background color.Color) *Coloring {
	c := NewColoring(g.N(), background)
	order := make([]int, g.N())
	for i := range order {
		order[i] = i
	}
	// Selection sort of the top `size` degrees keeps the package free of
	// sort-dependency noise for a tiny k.
	for i := 0; i < size && i < len(order); i++ {
		best := i
		for j := i + 1; j < len(order); j++ {
			if g.Degree(order[j]) > g.Degree(order[best]) {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
		c.Set(order[i], target)
	}
	return c
}

// SeedRandom returns a coloring in which `size` uniformly chosen vertices
// carry the target color.
func SeedRandom(g *Graph, size int, target, background color.Color, src *rng.Source) *Coloring {
	if src == nil {
		src = rng.New(1)
	}
	c := NewColoring(g.N(), background)
	perm := src.Perm(g.N())
	if size > len(perm) {
		size = len(perm)
	}
	for _, v := range perm[:size] {
		c.Set(v, target)
	}
	return c
}

// GreedyTargetSet is the simulation-driven greedy baseline from the target
// set selection literature (in the spirit of Kempe–Kleinberg–Tardos): it
// repeatedly adds to the seed the vertex whose activation most increases the
// final number of target-colored vertices under the given rule, until the
// whole graph activates or maxSeed vertices have been chosen.  It returns
// the chosen seed vertices.
//
// The marginal gain is evaluated exactly (one engine run per candidate), so
// the intended use is graphs of a few hundred vertices; candidateSample > 0
// restricts each step to a random sample of that many candidates to keep
// larger instances tractable.
func GreedyTargetSet(g *Graph, rule rules.Rule, target, background color.Color, maxSeed, maxRounds, candidateSample int, src *rng.Source) []int {
	return GreedyTargetSetEngine(g.EngineFor(rule), target, background, maxSeed, maxRounds, candidateSample, src)
}

// GreedyTargetSetEngine is GreedyTargetSet over an already built engine —
// the form the public dynmon systems use, and the reason the greedy search
// inherits the engine tiers: candidate evaluations run 64 at a time on the
// bit-sliced ensemble stepper when the engine can slice (a two-color
// {target, background} palette over a degree-4 substrate whose rule has a
// carry-save kernel), and otherwise fall back to per-candidate pooled
// frontier runs.  Both paths score candidates identically — the sliced
// tier is bit-exact — so the chosen seeds never depend on the tier
// (pinned by TestGreedyTargetSetMatchesLegacy and its sliced twin).
func GreedyTargetSetEngine(eng *sim.Engine, target, background color.Color, maxSeed, maxRounds, candidateSample int, src *rng.Source) []int {
	if src == nil {
		src = rng.New(1)
	}
	d := eng.Substrate().Dims()
	n := d.N()
	seed := map[int]bool{}
	var chosen []int
	c := color.NewColoring(d, background)
	evaluate := func() int {
		c.Fill(background)
		for v := range seed {
			c.Set(v, target)
		}
		return eng.Run(c, sim.Options{MaxRounds: maxRounds}).Final.Count(target)
	}

	// Batch evaluation: score every candidate of one greedy round, 64 lanes
	// per sliced run.  Lane i is the round's base coloring (background +
	// current seeds) with candidate i activated — exactly the coloring the
	// scalar evaluate() would run.  Returns false (leaving gains
	// unspecified) when the engine refuses to slice; the first refusal
	// disables batching for the rest of the search since eligibility cannot
	// change between rounds.
	sliceable := true
	base := color.NewColoring(d, background)
	var lanes []*color.Coloring
	outcomes := make([]sim.Outcome, color.MaxLanes)
	batchGains := func(candidates []int, gains []int) bool {
		base.Fill(background)
		for v := range seed {
			base.Set(v, target)
		}
		for lo := 0; lo < len(candidates); lo += color.MaxLanes {
			hi := min(lo+color.MaxLanes, len(candidates))
			for len(lanes) < hi-lo {
				lanes = append(lanes, color.NewColoring(d, background))
			}
			chunk := lanes[:hi-lo]
			for i, v := range candidates[lo:hi] {
				chunk[i].CopyFrom(base)
				chunk[i].Set(v, target)
			}
			pack := func(words []uint64) bool { return color.PackLanes(chunk, words) }
			if err := eng.RunBatchOutcomes(context.Background(), len(chunk), pack, sim.Options{MaxRounds: maxRounds}, target, outcomes); err != nil {
				return false
			}
			for i := range chunk {
				gains[lo+i] = outcomes[i].Count
			}
		}
		return true
	}

	current := 0
	for len(chosen) < maxSeed && current < n {
		candidates := make([]int, 0, n)
		for v := 0; v < n; v++ {
			if !seed[v] {
				candidates = append(candidates, v)
			}
		}
		if candidateSample > 0 && candidateSample < len(candidates) {
			src.Shuffle(len(candidates), func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
			candidates = candidates[:candidateSample]
		}
		bestVertex, bestGain := -1, -1
		if sliceable {
			gains := make([]int, len(candidates))
			if batchGains(candidates, gains) {
				for i, v := range candidates {
					if gains[i] > bestGain {
						bestGain, bestVertex = gains[i], v
					}
				}
			} else {
				sliceable = false
			}
		}
		if !sliceable {
			for _, v := range candidates {
				seed[v] = true
				gain := evaluate()
				delete(seed, v)
				if gain > bestGain {
					bestGain, bestVertex = gain, v
				}
			}
		}
		if bestVertex < 0 {
			break
		}
		seed[bestVertex] = true
		chosen = append(chosen, bestVertex)
		current = bestGain
	}
	return chosen
}
