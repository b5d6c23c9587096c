// Package tvg provides the link-availability models of the
// time-varying-graph extension suggested in the paper's conclusions ("such
// a protocol should be investigated in contexts where graphs are subject to
// intermittent availability of both links and nodes", citing Casteigts,
// Flocchini, Quattrociocchi, Santoro).
//
// The models implement the sim.Availability seam: a run with
// sim.Options.TimeVarying set masks link availability per round, so a
// vertex only observes the neighbors whose links are currently up and the
// SMP condition is evaluated on that reduced multiset.  The execution
// itself lives in the simulation engine, which forces full-sweep semantics
// — the dirty frontier is unsound under link churn — and works over every
// substrate, torus or general graph.  The public entry point is the dynmon package's
// TimeVarying run option.
package tvg

import (
	"repro/internal/rng"
)

// Availability decides which links are usable in a given round.  It must be
// deterministic in (round, u, v) so that simulations are reproducible;
// implementations receive the endpoints with u < v to keep the decision
// symmetric.
type Availability interface {
	// Available reports whether the link {u, v} can carry information
	// during the given round (1-based).
	Available(round, u, v int) bool
}

// AlwaysOn is the degenerate availability model of the static torus.
type AlwaysOn struct{}

// Available always returns true.
func (AlwaysOn) Available(int, int, int) bool { return true }

// Static reports that the model is equivalent to a fully available static
// network, which lets the engine keep the static fixed-point stop: a round
// that changes nothing can never change again.
func (AlwaysOn) Static() bool { return true }

// Bernoulli makes every link independently available with probability P in
// every round, using a hash of (seed, round, u, v) so that repeated queries
// agree and runs are reproducible.
type Bernoulli struct {
	// P is the per-round availability probability in [0, 1].
	P float64
	// Seed selects the random universe.
	Seed uint64
}

// Available implements Availability.
func (b Bernoulli) Available(round, u, v int) bool {
	if b.P >= 1 {
		return true
	}
	if b.P <= 0 {
		return false
	}
	h := rng.New(b.Seed ^ (uint64(round) * 0x9e3779b97f4a7c15) ^ (uint64(u) << 32) ^ uint64(v))
	return h.Float64() < b.P
}

// Static reports whether the model degenerates to the fully available
// static network (P >= 1).
func (b Bernoulli) Static() bool { return b.P >= 1 }

// NodeFaults wraps another availability model and additionally takes whole
// vertices offline: when a vertex is down during a round, every link
// incident to it is unavailable, so its neighbors cannot read its color and
// it reads nobody (hence it keeps its color).  This is the "intermittent
// availability of both links and nodes" variant from the paper's
// conclusions.
type NodeFaults struct {
	// Links is the underlying link-availability model (AlwaysOn for pure
	// node churn).
	Links Availability
	// P is the per-round probability that a vertex is up.
	P float64
	// Seed selects the random universe.
	Seed uint64
}

// nodeUp reports whether vertex v is up during the given round.
func (nf NodeFaults) nodeUp(round, v int) bool {
	if nf.P >= 1 {
		return true
	}
	if nf.P <= 0 {
		return false
	}
	h := rng.New(nf.Seed ^ 0xa24baed4963ee407 ^ (uint64(round) * 0x9e3779b97f4a7c15) ^ uint64(v)<<17)
	return h.Float64() < nf.P
}

// Available implements Availability: the link is usable only when both
// endpoints are up and the underlying link model allows it.
func (nf NodeFaults) Available(round, u, v int) bool {
	links := nf.Links
	if links == nil {
		links = AlwaysOn{}
	}
	return nf.nodeUp(round, u) && nf.nodeUp(round, v) && links.Available(round, u, v)
}

// Static reports whether the model degenerates to the fully available
// static network: no node ever fails and the underlying link model is
// itself static.
func (nf NodeFaults) Static() bool {
	if nf.P < 1 {
		return false
	}
	if nf.Links == nil {
		return true
	}
	s, ok := nf.Links.(interface{ Static() bool })
	return ok && s.Static()
}

// Periodic disables every link during rounds where (round mod Period) falls
// below Off; it models synchronized duty-cycling rather than random churn.
type Periodic struct {
	// Period is the cycle length in rounds (must be positive).
	Period int
	// Off is the number of rounds per cycle during which links are down.
	Off int
}

// Available implements Availability.
func (p Periodic) Available(round, _, _ int) bool {
	if p.Period <= 0 {
		return true
	}
	return round%p.Period >= p.Off
}

// Static reports whether the duty cycle never switches anything off.
func (p Periodic) Static() bool { return p.Period <= 0 || p.Off <= 0 }
