package serve

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// PredCache is the sharded LRU prediction cache of the serving subsystem.
// It memoises final match decisions keyed by the canonical serialized pair,
// so a hit skips the entire scoring pipeline: no re-serialization, no text
// profiling, no featurization, no model call — and, for prompted matchers,
// no per-token dollar cost. Online matching traffic is heavily repetitive
// (the same hot catalog entries are compared again and again), which is
// what makes a bounded decision cache the cheapest capacity lever the
// service has.
//
// The cache is sharded to keep lock contention off the hot path: keys are
// hashed with hash/maphash under a seed of the cache's own onto a
// power-of-two shard count, and each shard maintains an independent LRU
// list under its own mutex. A random seed is safe because shard choice
// never leaves the process. Entries are tiny (key string + one bool), so
// capacity is counted in entries, not bytes.
type PredCache struct {
	shards []cacheShard
	mask   uint64
	seed   maphash.Seed

	hits   atomic.Int64
	misses atomic.Int64
}

type cacheShard struct {
	mu  sync.Mutex
	m   map[string]*cacheNode
	cap int
	// Doubly-linked LRU list: head is most recent, tail least recent.
	head, tail *cacheNode
}

type cacheNode struct {
	key        string
	match      bool
	prev, next *cacheNode
}

// defaultCacheShards is the shard count of every server's prediction
// cache, and of NewPredCache when given none.
const defaultCacheShards = 16

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
		c.shards[i].m = make(map[string]*cacheNode)
		c.shards[i].cap = per
	}
	return c
}

// GetBytes looks up the cached decision for a canonical pair key held in
// a scratch buffer, refreshing its recency on a hit. The compiler's
// map-lookup optimisation for m[string(b)] means the conversion never
// allocates, which is what makes the serving hot path's cache probe free:
// the caller builds the canonical key in a pooled []byte and probes
// without ever interning it.
func (c *PredCache) GetBytes(key []byte) (match, ok bool) {
	s := &c.shards[maphash.Bytes(c.seed, key)&c.mask]
	s.mu.Lock()
	n, ok := s.m[string(key)]
	if ok {
		s.moveToFront(n)
		match = n.match
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return match, ok
}

// Put stores a decision, evicting the shard's least-recently-used entry
// when the shard is full.
func (c *PredCache) Put(key string, match bool) {
	s := &c.shards[maphash.String(c.seed, key)&c.mask]
	if s.cap <= 0 {
		return
	}
	s.mu.Lock()
	if n, ok := s.m[key]; ok {
		n.match = match
		s.moveToFront(n)
		s.mu.Unlock()
		return
	}
	if len(s.m) >= s.cap {
		// Evict the tail.
		t := s.tail
		s.unlink(t)
		delete(s.m, t.key)
	}
	n := &cacheNode{key: key, match: match}
	s.m[key] = n
	s.pushFront(n)
	s.mu.Unlock()
}

// Len returns the number of cached decisions.
func (c *PredCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.m)
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

func (s *cacheShard) pushFront(n *cacheNode) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *cacheShard) unlink(n *cacheNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (s *cacheShard) moveToFront(n *cacheNode) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}
