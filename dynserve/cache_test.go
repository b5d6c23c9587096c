package dynserve

import (
	"fmt"
	"net/http"
	"runtime"
	"testing"
)

// TestLRUCacheBoundAndRecency pins the cache discipline: the bound is a
// hard cap, eviction takes the least-recently-used entry, and Get refreshes
// recency.
func TestLRUCacheBoundAndRecency(t *testing.T) {
	var evictions int
	c := newLRUCache(3, func() { evictions++ })
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() != 3 {
		t.Fatalf("len %d, want 3", c.Len())
	}

	// Touch k0 so k1 becomes the LRU entry, then overflow.
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", 3)
	if evictions != 1 {
		t.Fatalf("evictions %d, want 1", evictions)
	}
	if _, ok := c.Get("k1"); ok {
		t.Fatal("k1 survived, but it was the least recently used")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted, want it retained", k)
		}
	}

	// Refreshing an existing key neither grows nor evicts.
	c.Put("k2", 22)
	if c.Len() != 3 || evictions != 1 {
		t.Fatalf("after refresh: len %d evictions %d, want 3/1", c.Len(), evictions)
	}
	if v, _ := c.Get("k2"); v.(int) != 22 {
		t.Fatalf("k2 = %v, want refreshed 22", v)
	}
}

// TestLRUCacheMinimumBound pins that a degenerate bound still caches one
// entry rather than nothing (or panicking).
func TestLRUCacheMinimumBound(t *testing.T) {
	c := newLRUCache(0, nil)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Fatalf("len %d, want 1", c.Len())
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("newest entry missing")
	}
}

// TestSystemCacheBoundsHeap pins that the system cache bounds the memory
// of distinct lattices: each engine owns its adjacency index, so evicting
// a system releases it.  Forty buffered runs on distinct 384×(384+i)
// meshes, a cache of four systems: the live heap must not grow with the
// number of sizes seen (one index is ~2.4 MiB here).  Five colors keep the
// runs off the bitplane tier, and one round keeps them cheap.
func TestSystemCacheBoundsHeap(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SystemCacheEntries: 4, CacheEntries: 4})
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var base uint64
	for i := 1; i <= 40; i++ {
		spec := fmt.Sprintf(`{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":384,"cols":%d}},"colors":5,"rule":"smp"},`+
			`"initial":{"config":"random","seed":1},"run":{"max_rounds":1}}`, 384+i)
		resp := postRun(t, ts.URL, []byte(spec), "application/json")
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		if i == 10 {
			base = heapInuse()
		}
	}
	const limit = 64 << 20
	if grown := int64(heapInuse()) - int64(base); grown >= limit {
		t.Fatalf("HeapInuse grew by %d MiB between the 10th and 40th distinct lattice, want < %d MiB", grown>>20, limit>>20)
	}
}
