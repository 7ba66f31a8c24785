package serve

import (
	"fmt"
	"sync"
	"testing"
)

func TestPredCacheBasic(t *testing.T) {
	c := NewPredCache(128, 4)
	if _, ok := c.GetBytes([]byte("a")); ok {
		t.Fatal("empty cache should miss")
	}
	c.Put("a", true)
	c.Put("b", false)
	if v, ok := c.GetBytes([]byte("a")); !ok || !v {
		t.Fatalf("a: got (%v,%v), want (true,true)", v, ok)
	}
	if v, ok := c.GetBytes([]byte("b")); !ok || v {
		t.Fatalf("b: got (%v,%v), want (false,true)", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Fatalf("stats = (%d,%d), want (2,1)", hits, misses)
	}
	// Overwrite keeps one entry and updates the value.
	c.Put("a", false)
	if v, _ := c.GetBytes([]byte("a")); v {
		t.Fatal("overwrite should update the decision")
	}
	if c.Len() != 2 {
		t.Fatalf("Len after overwrite = %d, want 2", c.Len())
	}
}

func TestPredCacheLRUEviction(t *testing.T) {
	// One shard, capacity 3: strict LRU order is observable.
	c := NewPredCache(3, 1)
	c.Put("a", true)
	c.Put("b", true)
	c.Put("c", true)
	c.GetBytes([]byte("a")) // refresh a; b is now least recent
	c.Put("d", true)
	if _, ok := c.GetBytes([]byte("b")); ok {
		t.Fatal("b should have been evicted as least recently used")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.GetBytes([]byte(k)); !ok {
			t.Fatalf("%s should have survived eviction", k)
		}
	}
}

func TestPredCacheZeroCapacity(t *testing.T) {
	c := NewPredCache(0, 8)
	c.Put("a", true)
	if _, ok := c.GetBytes([]byte("a")); ok {
		t.Fatal("zero-capacity cache must never store")
	}
	if c.Len() != 0 {
		t.Fatal("zero-capacity cache must stay empty")
	}
}

// TestPredCacheConcurrent exercises the sharded LRU under concurrent
// mixed load; run with -race (the verify-parallel gate does).
func TestPredCacheConcurrent(t *testing.T) {
	c := NewPredCache(512, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%997)
				if i%3 == 0 {
					c.Put(key, i%2 == 0)
				} else {
					c.GetBytes([]byte(key))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 512 {
		t.Fatalf("cache exceeded capacity: %d > 512", c.Len())
	}
	// The cache must still behave after the storm.
	c.Put("final", true)
	if v, ok := c.GetBytes([]byte("final")); !ok || !v {
		t.Fatal("cache corrupted by concurrent access")
	}
}
