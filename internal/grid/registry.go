package grid

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a topology of the given dimensions.  Factories registered
// by external callers may return any Topology implementation, not just the
// three tori of the paper.
type Factory func(rows, cols int) (Topology, error)

// topoRegistry maps topology names (including aliases) to factories.
var (
	topoRegistryMu sync.RWMutex
	topoRegistry   = map[string]Factory{}
)

// Register makes a topology constructible through ByName under the given
// name.  It is the extension point that lets callers plug new interaction
// topologies into the simulation tools without forking the repository.
// Registering an empty name, a nil factory or a name that is already taken
// panics.
func Register(name string, factory Factory) {
	if name == "" {
		panic("grid: Register with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("grid: Register(%q) with nil factory", name))
	}
	topoRegistryMu.Lock()
	defer topoRegistryMu.Unlock()
	if _, dup := topoRegistry[name]; dup {
		panic(fmt.Sprintf("grid: Register(%q) called twice", name))
	}
	topoRegistry[name] = factory
}

// ByName constructs the topology registered under the given name.  For the
// built-in tori it accepts every spelling kindNames lists ("mesh",
// "toroidal-mesh", "cordalis", ...), and resolves them to the same
// implementations New would build.
func ByName(name string, rows, cols int) (Topology, error) {
	topoRegistryMu.RLock()
	factory, ok := topoRegistry[name]
	topoRegistryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("grid: unknown topology %q", name)
	}
	return factory(rows, cols)
}

// RegisteredNames returns every name ByName accepts, sorted, including
// aliases and topologies registered by external callers.
func RegisteredNames() []string {
	topoRegistryMu.RLock()
	defer topoRegistryMu.RUnlock()
	out := make([]string, 0, len(topoRegistry))
	for name := range topoRegistry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	// Every spelling of a built-in kind resolves to New for that kind.
	for _, kind := range Kinds() {
		k := kind
		factory := func(rows, cols int) (Topology, error) { return New(k, rows, cols) }
		for _, name := range kindNames(k) {
			Register(name, factory)
		}
	}
}

// kindNames lists every accepted spelling of a built-in kind, canonical
// name first: the registry's built-in entries.
func kindNames(k Kind) []string {
	switch k {
	case KindToroidalMesh:
		return []string{"toroidal-mesh", "mesh", "toroidal_mesh"}
	case KindTorusCordalis:
		return []string{"torus-cordalis", "cordalis", "torus_cordalis"}
	case KindTorusSerpentinus:
		return []string{"torus-serpentinus", "serpentinus", "torus_serpentinus"}
	default:
		return nil
	}
}
