package dynmon

import (
	"repro/internal/grid"
	"repro/internal/rules"
)

// RegisterRule makes a rule resolvable through WithRule under the given
// name.  The factory must return a fresh, stateless (or concurrency-safe)
// Rule on every call.  Registering a duplicate name panics; registration is
// meant to happen from init functions or program start-up.
func RegisterRule(name string, factory func() Rule) {
	rules.Register(name, rules.Factory(factory))
}

// RuleByName resolves a registered rule, with the default parameters
// documented on each built-in constructor.
func RuleByName(name string) (Rule, error) { return rules.ByName(name) }

// RuleNames returns every name WithRule accepts, sorted, including aliases
// ("pb", "pc") and externally registered rules.
func RuleNames() []string { return rules.RegisteredNames() }

// RegisterTopology makes a topology resolvable through WithTopology under
// the given name.  The factory receives the requested dimensions and may
// reject them.  The topologies it returns must have a symmetric neighbor
// relation (u neighbors v exactly when v neighbors u); building a system
// over one that does not panics, naming the topology.  Registering a
// duplicate name panics.
func RegisterTopology(name string, factory func(rows, cols int) (Topology, error)) {
	grid.Register(name, grid.Factory(factory))
}

// TopologyByName resolves a registered topology with the given dimensions.
func TopologyByName(name string, rows, cols int) (Topology, error) {
	return grid.ByName(name, rows, cols)
}

// TopologyNames returns every name WithTopology accepts, sorted, including
// aliases and externally registered topologies.
func TopologyNames() []string { return grid.RegisteredNames() }
