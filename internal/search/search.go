// Package search looks for small dynamos beyond the paper's explicit
// constructions: randomized search over seed placements and paddings, and
// exhaustive search over seed placements on tiny tori.
//
// The package exists for two reasons.  First, it provides the negative
// controls of the lower-bound experiments (random undersized seeds almost
// never take over).  Second, it found the counterexamples documented in
// EXPERIMENTS.md: monotone dynamos *below* the Theorem 1 bound on small
// toroidal meshes.
package search

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// Found describes one configuration discovered by a search.
type Found struct {
	// SeedSize is the number of target-colored vertices.
	SeedSize int
	// Coloring is the full initial configuration.
	Coloring *color.Coloring
	// Monotone reports whether the dynamo is monotone.
	Monotone bool
	// Rounds is the convergence time.
	Rounds int
}

// Options bounds a randomized search.
type Options struct {
	// Trials is the number of random configurations tried per seed size.
	Trials int
	// RequireMonotone restricts the search to monotone dynamos.
	RequireMonotone bool
	// Seed selects the random universe.
	Seed uint64
}

// DefaultOptions returns the options used by the experiments.
func DefaultOptions() Options {
	return Options{Trials: 400, RequireMonotone: true, Seed: 1}
}

// RandomDynamo looks for a dynamo of exactly the given seed size by placing
// the seed uniformly at random and padding the rest with uniformly random
// other colors.  It returns the first hit, or nil if none is found within
// opt.Trials attempts.
func RandomDynamo(topo grid.Topology, size int, target color.Color, p color.Palette, opt Options) *Found {
	return randomDynamo(sim.NewEngine(topo, rules.SMP{}), topo, size, target, p, opt)
}

// randomDynamo is RandomDynamo verifying every trial on eng, the SMP engine
// over topo.
func randomDynamo(eng *sim.Engine, topo grid.Topology, size int, target color.Color, p color.Palette, opt Options) *Found {
	if opt.Trials <= 0 {
		opt.Trials = DefaultOptions().Trials
	}
	src := rng.New(opt.Seed)
	for trial := 0; trial < opt.Trials; trial++ {
		c := dynamo.RandomSeedColoring(topo, size, target, p, func(b int) int { return src.Intn(b) })
		v := dynamo.VerifyWith(eng, c, target)
		if !v.IsDynamo {
			continue
		}
		if opt.RequireMonotone && !v.Monotone {
			continue
		}
		return &Found{SeedSize: size, Coloring: c, Monotone: v.Monotone, Rounds: v.Rounds}
	}
	return nil
}

// SmallestRandomDynamo decreases the seed size starting just below `from`
// (typically the paper's lower bound) and returns the smallest size for
// which RandomDynamo still finds a configuration, together with the last
// hit.  It returns (0, nil) when even size from-1 yields nothing.
func SmallestRandomDynamo(topo grid.Topology, from int, target color.Color, p color.Palette, opt Options) (int, *Found) {
	eng := sim.NewEngine(topo, rules.SMP{})
	best := 0
	var bestFound *Found
	for size := from - 1; size >= 1; size-- {
		found := randomDynamo(eng, topo, size, target, p, opt)
		if found == nil {
			break
		}
		best, bestFound = size, found
	}
	return best, bestFound
}

// ExhaustiveMonotoneDynamo enumerates every seed placement of exactly the
// given size on the torus (paddings are searched randomly per placement) and
// reports whether any of them is a monotone dynamo.  It is exponential in
// the seed size and is meant for tiny tori only; the enumeration is capped
// at maxPlacements (0 means 2'000'000).
func ExhaustiveMonotoneDynamo(topo grid.Topology, size int, target color.Color, p color.Palette, paddingsPerPlacement int, maxPlacements int) (*Found, int, error) {
	n := topo.Dims().N()
	if size < 1 || size > n {
		return nil, 0, fmt.Errorf("search: seed size %d out of range for %d vertices", size, n)
	}
	if maxPlacements <= 0 {
		maxPlacements = 2_000_000
	}
	if paddingsPerPlacement <= 0 {
		paddingsPerPlacement = 8
	}
	src := rng.New(7)
	others := p.Others(target)
	eng := sim.NewEngine(topo, rules.SMP{})

	indices := make([]int, size)
	for i := range indices {
		indices[i] = i
	}
	placements := 0
	for {
		placements++
		if placements > maxPlacements {
			return nil, placements - 1, fmt.Errorf("search: placement cap %d reached", maxPlacements)
		}
		// Try the current placement with several random paddings.
		for attempt := 0; attempt < paddingsPerPlacement; attempt++ {
			c := color.NewColoring(topo.Dims(), color.None)
			for _, v := range indices {
				c.Set(v, target)
			}
			for v := 0; v < n; v++ {
				if c.At(v) == color.None {
					c.Set(v, others[src.Intn(len(others))])
				}
			}
			v := dynamo.VerifyWith(eng, c, target)
			if v.IsDynamo && v.Monotone {
				return &Found{SeedSize: size, Coloring: c, Monotone: true, Rounds: v.Rounds}, placements, nil
			}
		}
		// Advance to the next combination (lexicographic).
		i := size - 1
		for i >= 0 && indices[i] == n-size+i {
			i--
		}
		if i < 0 {
			return nil, placements, nil
		}
		indices[i]++
		for j := i + 1; j < size; j++ {
			indices[j] = indices[j-1] + 1
		}
	}
}
