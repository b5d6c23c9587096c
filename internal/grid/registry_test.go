package grid

import (
	"reflect"
	"testing"
)

// TestRegistryParseKindParity asserts that every spelling of a built-in
// kind makes the registry build exactly the topology New builds for that
// kind.
func TestRegistryParseKindParity(t *testing.T) {
	spellings := []struct {
		name string
		kind Kind
	}{
		{"toroidal-mesh", KindToroidalMesh}, {"mesh", KindToroidalMesh}, {"toroidal_mesh", KindToroidalMesh},
		{"torus-cordalis", KindTorusCordalis}, {"cordalis", KindTorusCordalis}, {"torus_cordalis", KindTorusCordalis},
		{"torus-serpentinus", KindTorusSerpentinus}, {"serpentinus", KindTorusSerpentinus}, {"torus_serpentinus", KindTorusSerpentinus},
	}
	for _, sp := range spellings {
		name, kind := sp.name, sp.kind
		t.Run(name, func(t *testing.T) {
			want, err := New(kind, 6, 7)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ByName(name, 6, 7)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ByName(%q) = %#v, New = %#v", name, got, want)
			}
			if got.Kind() != kind || got.Dims() != want.Dims() {
				t.Fatalf("kind/dims drift for %q", name)
			}
			// The adjacency structure must match vertex by vertex.
			for v := 0; v < got.Dims().N(); v++ {
				if !reflect.DeepEqual(got.Neighbors(v, nil), want.Neighbors(v, nil)) {
					t.Fatalf("%q: neighbor drift at vertex %d", name, v)
				}
			}
		})
	}
	if _, err := ByName("hypercube", 4, 4); err == nil {
		t.Error("unknown names must still be rejected")
	}
	// Invalid dimensions propagate the constructor's error.
	if _, err := ByName("mesh", 1, 5); err == nil {
		t.Error("invalid dimensions must be rejected")
	}
}

// registerTopoOnce is Register tolerating re-registration, so tests stay
// idempotent when the binary reruns them in one process (go test -count=N).
func registerTopoOnce(name string, factory Factory) {
	if _, err := ByName(name, 2, 2); err != nil {
		Register(name, factory)
	}
}

// TestRegisterCustomTopology exercises the extension point: a topology
// registered at runtime is constructible by name.
func TestRegisterCustomTopology(t *testing.T) {
	registerTopoOnce("test-mesh-alias", func(rows, cols int) (Topology, error) {
		return New(KindToroidalMesh, rows, cols)
	})
	topo, err := ByName("test-mesh-alias", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind() != KindToroidalMesh {
		t.Errorf("kind = %v", topo.Kind())
	}
	found := false
	for _, name := range RegisteredNames() {
		if name == "test-mesh-alias" {
			found = true
		}
	}
	if !found {
		t.Error("RegisteredNames should include the custom topology")
	}
}

func TestTopologyRegisterRejectsDuplicatesAndNil(t *testing.T) {
	mustPanic := func(name string, f Factory) {
		defer func() {
			if recover() == nil {
				t.Errorf("Register(%q) should panic", name)
			}
		}()
		Register(name, f)
	}
	mustPanic("mesh", func(rows, cols int) (Topology, error) { return New(KindToroidalMesh, rows, cols) })
	mustPanic("", func(rows, cols int) (Topology, error) { return New(KindToroidalMesh, rows, cols) })
	mustPanic("nil-topo-factory", nil)
}
