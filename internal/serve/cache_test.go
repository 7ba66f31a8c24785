package serve

import (
	"fmt"
	"hash/maphash"
	"math/rand"
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
	// One shard, capacity 3: the eviction order is observable. A hit
	// marks a, so the hand spares it and evicts b, the oldest unmarked
	// entry, as least recent use would.
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

// TestPredCacheConcurrent exercises the sharded cache under concurrent
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

// clockModel is the reference the cache is checked against: per shard, a
// map from key to ring position plus a ring swept by a clock hand.
type clockModel struct {
	cap  int
	hand int
	pos  map[string]int
	ring []clockEntry
}

type clockEntry struct {
	key        string
	match, ref bool
}

func (m *clockModel) get(key string) (match, ok bool) {
	p, ok := m.pos[key]
	if !ok {
		return false, false
	}
	m.ring[p].ref = true
	return m.ring[p].match, true
}

func (m *clockModel) put(key string, match bool) {
	if p, ok := m.pos[key]; ok {
		m.ring[p].match, m.ring[p].ref = match, true
		return
	}
	if len(m.ring) < m.cap {
		m.pos[key] = len(m.ring)
		m.ring = append(m.ring, clockEntry{key: key, match: match})
		return
	}
	for m.ring[m.hand].ref {
		m.ring[m.hand].ref = false
		m.hand = (m.hand + 1) % m.cap
	}
	delete(m.pos, m.ring[m.hand].key)
	m.pos[key] = m.hand
	m.ring[m.hand] = clockEntry{key: key, match: match}
	m.hand = (m.hand + 1) % m.cap
}

// checkShard compares shard s with its model entry by entry and checks
// the index: at most half full, at most 2*cap slots, one slot per entry,
// and every entry reachable from its home slot. It reports whether some
// entry sits past the end of the index from its home, i.e. its probe run
// wraps.
func checkShard(t *testing.T, s *cacheShard, m *clockModel) (wrapped bool) {
	t.Helper()
	if len(s.ring) != len(m.ring) || s.hand != m.hand {
		t.Fatalf("shard holds %d entries at hand %d, model %d at hand %d", len(s.ring), s.hand, len(m.ring), m.hand)
	}
	for p, e := range s.ring {
		if w := m.ring[p]; e.key != w.key || e.match != w.match || e.ref != w.ref {
			t.Fatalf("ring[%d] = {%q %v ref=%v}, model {%q %v ref=%v}", p, e.key, e.match, e.ref, w.key, w.match, w.ref)
		}
	}
	n := len(s.index)
	if n > 2*s.cap || 2*len(s.ring) > n {
		t.Fatalf("index of %d slots for %d entries, cap %d", n, len(s.ring), s.cap)
	}
	used := 0
	for i, v := range s.index {
		if v == 0 {
			continue
		}
		used++
		if home(s.ring[v-1].hash, n) > i {
			wrapped = true
		}
	}
	if used != len(s.ring) {
		t.Fatalf("index holds %d positions for %d entries", used, len(s.ring))
	}
	for p, e := range s.ring {
		if got := find(s, e.hash, e.key); got != p {
			t.Fatalf("find(%q) = %d, want %d", e.key, got, p)
		}
	}
	return wrapped
}

// TestPredCacheMatchesClockModel drives the cache and the reference model
// with the same seeded GetBytes/Put sequences and compares every answer,
// every entry and the index after each step. The key space is several
// times each shard's capacity, so entries are evicted throughout and
// probe runs wrap past the index's end while backward-shift deletion
// moves them.
func TestPredCacheMatchesClockModel(t *testing.T) {
	for _, nshards := range []int{1, 4} {
		wraps := 0
		for capacity := 1; capacity <= 64; capacity++ {
			c := NewPredCache(capacity*nshards, nshards)
			models := make([]clockModel, nshards)
			for i := range models {
				models[i] = clockModel{cap: c.shards[i].cap, pos: map[string]int{}}
			}
			rng := rand.New(rand.NewSource(int64(capacity*10 + nshards)))
			universe := 3 * capacity * nshards
			hot := capacity*nshards/2 + 1
			for step := 0; step < 3000; step++ {
				k := rng.Intn(universe)
				if rng.Intn(2) == 0 {
					k = rng.Intn(hot)
				}
				key := fmt.Sprintf("pair-%d", k)
				sh := int(maphash.String(c.seed, key) & c.mask)
				m := &models[sh]
				if rng.Intn(5) < 3 {
					gv, gok := c.GetBytes([]byte(key))
					if wv, wok := m.get(key); gv != wv || gok != wok {
						t.Fatalf("cap %d/%d shards, step %d: GetBytes(%q) = (%v,%v), model (%v,%v)",
							capacity, nshards, step, key, gv, gok, wv, wok)
					}
				} else {
					match := rng.Intn(2) == 0
					c.Put(key, match)
					m.put(key, match)
				}
				if checkShard(t, &c.shards[sh], m) {
					wraps++
				}
			}
			total := 0
			for i := range models {
				total += len(models[i].ring)
			}
			if c.Len() != total {
				t.Fatalf("cap %d/%d shards: Len = %d, model %d", capacity, nshards, c.Len(), total)
			}
		}
		if wraps == 0 {
			t.Fatalf("%d shards: no probe run ever wrapped past the index's end", nshards)
		}
	}
}

// TestPredCacheCycleNeverHits pins the property behind the replica-miss
// benchmark's zero hit ratio: misses leave no marks, so a cycle of keys
// longer than the cache evicts each key before it comes round again.
func TestPredCacheCycleNeverHits(t *testing.T) {
	for _, nshards := range []int{1, 4} {
		const capacity = 1024
		c := NewPredCache(capacity, nshards)
		keys := make([]string, 4*capacity)
		for i := range keys {
			keys[i] = fmt.Sprintf("cycle-%d", i)
		}
		for round := 0; round < 3; round++ {
			for _, k := range keys {
				if _, ok := c.GetBytes([]byte(k)); ok {
					t.Fatalf("%d shards, round %d: %q hit in a cycle of %d keys", nshards, round, k, len(keys))
				}
				c.Put(k, true)
			}
		}
		if hits, _ := c.Stats(); hits != 0 {
			t.Fatalf("%d shards: %d hits, want 0", nshards, hits)
		}
	}
}

// TestPredCacheSecondChance checks that one hit buys a key one pass of
// the hand: it survives the sweep that evicts every unmarked entry
// around it, and the hand clears its mark on the way.
func TestPredCacheSecondChance(t *testing.T) {
	const capacity = 8
	c := NewPredCache(capacity, 1)
	for i := 0; i < capacity; i++ {
		c.Put(fmt.Sprintf("old-%d", i), true)
	}
	c.GetBytes([]byte("old-3"))
	for i := 0; i < capacity-1; i++ {
		c.Put(fmt.Sprintf("new-%d", i), true)
	}
	s := &c.shards[0]
	if p := find(s, maphash.String(c.seed, "old-3"), "old-3"); p < 0 || s.ring[p].ref {
		t.Fatal("old-3 should survive the sweep with its mark cleared")
	}
	for i := 0; i < capacity; i++ {
		_, ok := c.GetBytes([]byte(fmt.Sprintf("old-%d", i)))
		if want := i == 3; ok != want {
			t.Fatalf("old-%d cached = %v after a sweep, want %v", i, ok, want)
		}
	}
}
