package serve

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// PredCache is the sharded second-chance (CLOCK) prediction cache of the
// serving subsystem. It memoises final match decisions keyed by the
// canonical serialized pair, so a hit skips the entire scoring pipeline:
// no re-serialization, no text profiling, no featurization, no model call
// — and, for prompted matchers, no per-token dollar cost. Online matching
// traffic is heavily repetitive (the same hot catalog entries are compared
// again and again), which is what makes a bounded decision cache the
// cheapest capacity lever the service has.
//
// The cache is sharded to keep lock contention off the hot path: keys are
// hashed with hash/maphash under a seed of the cache's own onto a
// power-of-two shard count, and each shard evicts under its own mutex by
// second chance: a hit marks its entry referenced, and a full shard's Put
// sweeps a clock hand over its entries, clearing marks, until it reaches
// an unmarked entry, which it replaces. A random seed is safe because
// shard choice never leaves the process. Entries are tiny (key string +
// one bool), so capacity is counted in entries, not bytes.
type PredCache struct {
	shards []cacheShard
	mask   uint64
	seed   maphash.Seed

	hits   atomic.Int64
	misses atomic.Int64
}

// cacheShard holds at most cap entries in two flat slices: ring, the
// entries in the order the clock hand visits them, and index, an
// open-addressing table of ring positions probed linearly from each key's
// hash. A hit probes the index, reads the one entry it names and writes
// at most that entry's mark; a Put into a full shard overwrites an entry
// in place and allocates nothing.
type cacheShard struct {
	mu   sync.Mutex
	cap  int
	hand int // ring position the next eviction sweep starts from
	ring []cacheEntry
	// index holds ring position+1 per slot, 0 for an empty slot. It grows
	// by doubling to at most 2*cap slots, so it is never more than half
	// full.
	index []uint32
}

type cacheEntry struct {
	hash  uint64
	key   string
	match bool
	ref   bool // hit since the hand last passed
}

// defaultCacheShards is the shard count of every server's prediction
// cache, and of NewPredCache when given none.
const defaultCacheShards = 16

// minCacheIndex is the slot count of a shard's index at its first Put.
const minCacheIndex = 16

// NewPredCache returns a cache holding at most capacity entries across
// nshards shards (rounded up to a power of two; both arguments get sane
// defaults when non-positive). A zero-capacity cache is valid and never
// stores anything — the cache-off configuration of the load generator's
// baseline.
func NewPredCache(capacity, nshards int) *PredCache {
	if capacity < 0 {
		capacity = 0
	}
	if nshards <= 0 {
		nshards = defaultCacheShards
	}
	n := 1
	for n < nshards {
		n <<= 1
	}
	// Distribute capacity across shards, rounding up so the total is never
	// below the requested capacity.
	per := (capacity + n - 1) / n
	c := &PredCache{shards: make([]cacheShard, n), mask: uint64(n - 1), seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].cap = per
	}
	return c
}

// GetBytes looks up the cached decision for a canonical pair key held in
// a scratch buffer, marking the entry referenced on a hit. The key is
// compared in place, never interned, which is what makes the serving hot
// path's cache probe free: the caller builds the canonical key in a pooled
// []byte and probes without allocating.
func (c *PredCache) GetBytes(key []byte) (match, ok bool) {
	h := maphash.Bytes(c.seed, key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	if p := find(s, h, key); p >= 0 {
		e := &s.ring[p]
		if !e.ref {
			e.ref = true
		}
		match, ok = e.match, true
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return match, ok
}

// Put stores a decision. Overwriting a cached key updates its decision
// and marks it referenced; a new key enters unmarked, replacing the
// shard's next unmarked entry when the shard is full.
func (c *PredCache) Put(key string, match bool) {
	h := maphash.String(c.seed, key)
	s := &c.shards[h&c.mask]
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	if p := find(s, h, key); p >= 0 {
		s.ring[p].match = match
		s.ring[p].ref = true
		s.mu.Unlock()
		return
	}
	e := cacheEntry{hash: h, key: key, match: match}
	if len(s.ring) < s.cap {
		if 2*(len(s.ring)+1) > len(s.index) {
			s.grow()
		}
		s.ring = append(s.ring, e)
		s.link(h, len(s.ring)-1)
	} else {
		p := s.victim()
		s.unlink(s.ring[p].hash, p)
		s.ring[p] = e
		s.link(h, p)
	}
	s.mu.Unlock()
}

// Len returns the number of cached decisions.
func (c *PredCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.ring)
		s.mu.Unlock()
	}
	return total
}

// Stats reports cumulative hit and miss counts.
func (c *PredCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (c *PredCache) HitRate() float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// home returns the index slot a key of hash h is probed from. It takes
// the hash's high half, so it is independent of the low bits that chose
// the shard, and maps it onto [0, n) by multiplication, so n need not be
// a power of two.
func home(h uint64, n int) int {
	return int((h >> 32) * uint64(n) >> 32)
}

// find returns the ring position of key, whose hash is h, or -1.
func find[K string | []byte](s *cacheShard, h uint64, key K) int {
	n := len(s.index)
	if n == 0 {
		return -1
	}
	for i := home(h, n); ; {
		v := s.index[i]
		if v == 0 {
			return -1
		}
		if e := &s.ring[v-1]; e.hash == h && e.key == string(key) {
			return int(v - 1)
		}
		if i++; i == n {
			i = 0
		}
	}
}

// link records ring position p, holding a key of hash h, in the first
// free slot of its probe sequence.
func (s *cacheShard) link(h uint64, p int) {
	n := len(s.index)
	i := home(h, n)
	for s.index[i] != 0 {
		if i++; i == n {
			i = 0
		}
	}
	s.index[i] = uint32(p + 1)
}

// unlink removes ring position p, holding a key of hash h, from the
// index by backward shift: each later entry of the probe run that may
// sit at or before the freed slot moves into it, so no tombstone is left
// and every remaining key stays reachable from its home slot.
func (s *cacheShard) unlink(h uint64, p int) {
	n := len(s.index)
	i := home(h, n)
	for s.index[i] != uint32(p+1) {
		if i++; i == n {
			i = 0
		}
	}
	for j := i; ; {
		if j++; j == n {
			j = 0
		}
		v := s.index[j]
		if v == 0 {
			break
		}
		// The entry at j may move back to the hole at i when its home
		// is at least as far behind j as i is: not cyclically in (i, j].
		if cyclic(j-home(s.ring[v-1].hash, n), n) >= cyclic(j-i, n) {
			s.index[i] = v
			i = j
		}
	}
	s.index[i] = 0
}

// cyclic maps a difference of two slots of an n-slot index into [0, n).
func cyclic(d, n int) int {
	if d < 0 {
		d += n
	}
	return d
}

// victim advances the clock hand past referenced entries, clearing their
// marks, and returns the first unreferenced position, leaving the hand
// just after it.
func (s *cacheShard) victim() int {
	for {
		p := s.hand
		if s.hand++; s.hand == len(s.ring) {
			s.hand = 0
		}
		if !s.ring[p].ref {
			return p
		}
		s.ring[p].ref = false
	}
}

// grow doubles the index, to at most 2*cap slots, and re-links every
// entry; the ring's capacity grows with it to half the new slot count.
func (s *cacheShard) grow() {
	n := min(max(2*len(s.index), minCacheIndex), 2*s.cap)
	s.index = make([]uint32, n)
	ring := make([]cacheEntry, len(s.ring), n/2)
	copy(ring, s.ring)
	s.ring = ring
	for p := range s.ring {
		s.link(s.ring[p].hash, p)
	}
}
