package record

import (
	"fmt"
	"sync"
	"testing"
)

func TestSerializeCacheMatchesUncached(t *testing.T) {
	cache := NewSerializeCache()
	recs := []Record{
		{ID: "a", Values: []string{"alpha", "beta", "gamma"}},
		{ID: "b", Values: []string{"one", "", "three"}},
		{ID: "c", Values: []string{"x"}},
	}
	optVariants := []SerializeOptions{
		{},
		{ColumnOrder: []int{2, 0, 1}},
		{ColumnOrder: []int{0}},
		{Separator: " | "},
		{ColumnOrder: []int{1, 2, 0}, Separator: "; "},
	}
	for _, r := range recs {
		for _, opts := range optVariants {
			want := SerializeRecord(r, opts)
			withCache := opts
			withCache.Cache = cache
			// Twice: once to populate, once to hit.
			for pass := 0; pass < 2; pass++ {
				if got := SerializeRecord(r, withCache); got != want {
					t.Fatalf("cached serialization %q != uncached %q (rec %s, opts %+v, pass %d)",
						got, want, r.ID, opts, pass)
				}
			}
		}
	}
	if hits, misses := cache.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("expected both hits and misses, got %d/%d", hits, misses)
	}
}

func TestSerializeCacheDistinguishesFieldBoundaries(t *testing.T) {
	cache := NewSerializeCache()
	a := Record{ID: "x", Values: []string{"ab", "c"}}
	b := Record{ID: "x", Values: []string{"a", "bc"}}
	opts := SerializeOptions{Cache: cache}
	sa, sb := SerializeRecord(a, opts), SerializeRecord(b, opts)
	if sa != "ab, c" || sb != "a, bc" {
		t.Fatalf("boundary confusion: %q vs %q", sa, sb)
	}
}

func TestSerializeCacheDerivedRecordSameID(t *testing.T) {
	// Ditto's summarisation keeps the record ID but truncates values; the
	// cache must treat the derived record as a distinct entry.
	cache := NewSerializeCache()
	orig := Record{ID: "r1", Values: []string{"one two three four"}}
	trunc := Record{ID: "r1", Values: []string{"one two"}}
	opts := SerializeOptions{Cache: cache}
	if got := SerializeRecord(orig, opts); got != "one two three four" {
		t.Fatalf("orig = %q", got)
	}
	if got := SerializeRecord(trunc, opts); got != "one two" {
		t.Fatalf("derived record served stale serialization: %q", got)
	}
}

func TestSerializeCacheNilVsEmptyOrder(t *testing.T) {
	cache := NewSerializeCache()
	r := Record{ID: "r", Values: []string{"a", "b"}}
	full := SerializeRecord(r, SerializeOptions{Cache: cache})
	empty := SerializeRecord(r, SerializeOptions{Cache: cache, ColumnOrder: []int{}})
	if full != "a, b" || empty != "" {
		t.Fatalf("nil/empty order confusion: full=%q empty=%q", full, empty)
	}
}

func TestSerializeCacheConcurrent(t *testing.T) {
	cache := NewSerializeCache()
	recs := make([]Record, 64)
	for i := range recs {
		recs[i] = Record{ID: fmt.Sprintf("r%d", i), Values: []string{fmt.Sprintf("value %d", i), "shared"}}
	}
	opts := SerializeOptions{Cache: cache}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 50; pass++ {
				for i, r := range recs {
					want := fmt.Sprintf("value %d, shared", i)
					if got := SerializeRecord(r, opts); got != want {
						t.Errorf("concurrent read got %q, want %q", got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(cache.m) != len(recs) {
		t.Fatalf("cache has %d entries, want %d", len(cache.m), len(recs))
	}
}

func BenchmarkSerializeRecordUncached(b *testing.B) {
	r := Record{ID: "r", Values: []string{"golden dragon restaurant", "123 main street", "new york", "chinese", "212-555-0188"}}
	opts := SerializeOptions{ColumnOrder: []int{4, 2, 0, 1, 3}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SerializeRecord(r, opts)
	}
}

func BenchmarkSerializeRecordCached(b *testing.B) {
	r := Record{ID: "r", Values: []string{"golden dragon restaurant", "123 main street", "new york", "chinese", "212-555-0188"}}
	opts := SerializeOptions{ColumnOrder: []int{4, 2, 0, 1, 3}, Cache: NewSerializeCache()}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SerializeRecord(r, opts)
	}
}
