package record

import (
	"sync"
	"sync/atomic"
)

// SerializeCache memoises record serializations across evaluation runs.
// The leave-one-dataset-out study serialises the same fixed test sets once
// per (matcher, seed, target) run — hundreds of times per record over a
// full quality table — and the serialized string depends only on the
// record's values, the column order and the separator, so a single shared
// cache eliminates the repeated work.
//
// The cache is safe for concurrent use: entries are written once and then
// only read, which fits the parallel evaluation engine's read-mostly
// access pattern. Keys fingerprint the record ID, every value, the column
// order and the separator, so derived records (e.g. Ditto's summarised
// copies, which keep the original ID but truncate values) can never
// observe each other's entries; as a second guard an entry is only
// returned when its stored record ID also matches.
type SerializeCache struct {
	mu sync.RWMutex
	m  map[uint64]serCacheEntry

	hits   atomic.Int64
	misses atomic.Int64
}

type serCacheEntry struct {
	id string
	s  string
}

// NewSerializeCache returns an empty cache.
func NewSerializeCache() *SerializeCache {
	return &SerializeCache{m: make(map[uint64]serCacheEntry)}
}

// Stats reports the cumulative hit and miss counts, for benchmarks and
// capacity planning.
func (c *SerializeCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// record looks up (or computes and stores) the serialization of r under
// opts. The compute callback receives opts with the cache stripped so the
// underlying serializer cannot recurse.
func (c *SerializeCache) record(r Record, opts SerializeOptions) string {
	key := serCacheKey(r, opts)
	c.mu.RLock()
	e, ok := c.m[key]
	c.mu.RUnlock()
	if ok && e.id == r.ID {
		c.hits.Add(1)
		return e.s
	}
	c.misses.Add(1)
	plain := opts
	plain.Cache = nil
	s := SerializeRecord(r, plain)
	if ok {
		// Fingerprint collision against a different record: serve the
		// freshly computed string and keep the existing entry.
		return s
	}
	c.mu.Lock()
	if _, exists := c.m[key]; !exists {
		c.m[key] = serCacheEntry{id: r.ID, s: s}
	}
	c.mu.Unlock()
	return s
}

// serCacheKey fingerprints everything the serialization depends on with
// FNV-1a: the record identity and values, the column order and the
// separator.
func serCacheKey(r Record, opts SerializeOptions) uint64 {
	const (
		offset64 = 1469598103934665603
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator, so ("ab","c") != ("a","bc")
		h *= prime64
	}
	mix(r.ID)
	for _, v := range r.Values {
		mix(v)
	}
	// A nil order means schema order, while a non-nil (even empty) order
	// projects; the marker keeps the two from colliding.
	if opts.ColumnOrder != nil {
		h ^= 0xa5
		h *= prime64
		for _, i := range opts.ColumnOrder {
			h ^= uint64(i) + 0x9e3779b97f4a7c15
			h *= prime64
		}
	}
	mix(opts.Separator)
	return h
}
