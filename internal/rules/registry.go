package rules

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a fresh Rule value with that rule's default parameters.
type Factory func() Rule

// registry maps rule names (including aliases) to factories.  Guarded by a
// mutex because the public dynmon package lets callers register rules at
// runtime, possibly from init functions of several packages.
var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a rule available to ByName under the given name.  It is
// how external callers plug new rules into the simulation tools without
// forking the repository.  Registering an empty name, a nil factory or a
// name that is already taken panics: collisions are programmer errors and
// surfacing them at init time beats silently shadowing a rule.
func Register(name string, factory Factory) {
	if name == "" {
		panic("rules: Register with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("rules: Register(%q) with nil factory", name))
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("rules: Register(%q) called twice", name))
	}
	registry[name] = factory
}

// ByName returns a fresh instance of the rule registered under the given
// name, using the default parameters documented on each constructor.  It is
// used by the command-line tools and the dynmon façade.
func ByName(name string) (Rule, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rules: unknown rule %q", name)
	}
	return factory(), nil
}

// RegisteredNames returns every name ByName accepts, sorted, including
// aliases and rules registered by external callers.
func RegisteredNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register("smp", func() Rule { return SMP{} })
	Register("simple-majority-pb", func() Rule { return SimpleMajorityPB{Black: 2} })
	Register("pb", func() Rule { return SimpleMajorityPB{Black: 2} })
	Register("simple-majority-pc", func() Rule { return SimpleMajorityPC{} })
	Register("pc", func() Rule { return SimpleMajorityPC{} })
	Register("strong-majority", func() Rule { return StrongMajority{} })
	Register("increment", func() Rule { return Increment{K: 4} })
	Register("irreversible-smp", func() Rule { return IrreversibleSMP{Target: 1} })
	// The degree-aware extension of the SMP-Protocol; on 4-regular
	// substrates it is bit-identical to "smp" (pinned by differential
	// tests), and it is the default rule of general-graph systems.
	Register("generalized-smp", func() Rule { return GeneralizedSMP{} })
	// The irreversible linear-threshold baseline was previously only
	// constructible as a struct literal; registering it makes it reachable
	// from the command-line tools and the dynmon façade too.
	Register("threshold", func() Rule { return Threshold{Target: 1, Theta: 2} })
	// Explicit-θ variants so spec files and the ensemble "threshold" sweep
	// axis can select the activation threshold by name.
	Register("threshold-1", func() Rule { return Threshold{Target: 1, Theta: 1} })
	Register("threshold-2", func() Rule { return Threshold{Target: 1, Theta: 2} })
	Register("threshold-3", func() Rule { return Threshold{Target: 1, Theta: 3} })
	Register("threshold-4", func() Rule { return Threshold{Target: 1, Theta: 4} })
}
