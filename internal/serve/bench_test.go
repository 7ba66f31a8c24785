package serve

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/record"
	"repro/internal/wire"
)

// Serving microbenchmarks (EXPERIMENTS.md "Online serving"; the
// end-to-end figures are benchmark/'s): single-pair latency, batched
// throughput and the cache-hit fast path, for one cheap matcher
// (stringsim) and one expensive prompted matcher (gpt-4). All go through
// Submit — the same pipeline the HTTP handler drives — so they measure
// dispatch, scoring, caching and cost accounting, without the HTTP stack.

func benchServer(b *testing.B, matcher string, cacheCap int) (*Server, []record.Pair) {
	b.Helper()
	srv, err := New(trained(b, matcher), Config{
		MatcherName:   matcher,
		CacheCapacity: cacheCap,
		Workers:       2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(srv.Shutdown)
	return srv, benchmarkPairs(b, "ABT", 256)
}

func benchSingle(b *testing.B, matcher string) {
	srv, pairs := benchServer(b, matcher, 0)
	one := make([]record.Pair, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = pairs[i%len(pairs)]
		if _, err := srv.Submit(context.Background(), one); err != nil {
			b.Fatal(err)
		}
	}
}

func benchBatched(b *testing.B, matcher string) {
	srv, pairs := benchServer(b, matcher, 0)
	const per = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := (i * per) % len(pairs)
		end := at + per
		if end > len(pairs) {
			end = len(pairs)
		}
		if _, err := srv.Submit(context.Background(), pairs[at:end]); err != nil {
			b.Fatal(err)
		}
	}
}

func benchCacheHit(b *testing.B, matcher string) {
	srv, pairs := benchServer(b, matcher, 1<<12)
	// Warm the cache with the full replay set.
	if _, err := srv.Submit(context.Background(), pairs); err != nil {
		b.Fatal(err)
	}
	one := make([]record.Pair, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		one[0] = pairs[i%len(pairs)]
		res, err := srv.Submit(context.Background(), one)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Cached[0] {
			b.Fatal("expected a cache hit")
		}
	}
}

// benchWireCacheHit drives ServeWire with a pre-encoded frame against a
// warmed cache: the zero-copy binary hot path end to end (frame parse,
// pooled key probe, response encode), minus the HTTP transport. These are
// the paths TestWireCacheHitZeroAlloc (make alloc-gate) holds at 0 allocs.
func benchWireCacheHit(b *testing.B, matcher string, per int) {
	srv, pairs := benchServer(b, matcher, 1<<12)
	if _, err := srv.Submit(context.Background(), pairs); err != nil {
		b.Fatal(err)
	}
	frame := wire.AppendRequest(nil, pairs[:per], 0)
	dst := make([]byte, 0, 4096)
	ctx := context.Background()
	// Warm the wire scratch pools before measuring.
	if st, _ := srv.ServeWire(ctx, frame, dst[:0]); st != http.StatusOK {
		b.Fatalf("warmup status %d", st)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, _ := srv.ServeWire(ctx, frame, dst[:0]); st != http.StatusOK {
			b.Fatalf("status %d", st)
		}
	}
}

// benchWireMiss measures the binary path through scoring (cache disabled):
// decode, materialise, coalesce, batch kernel, encode.
func benchWireMiss(b *testing.B, matcher string, per int) {
	srv, pairs := benchServer(b, matcher, 0)
	dst := make([]byte, 0, 4096)
	ctx := context.Background()
	frames := make([][]byte, 0, len(pairs)/per)
	for at := 0; at+per <= len(pairs); at += per {
		frames = append(frames, wire.AppendRequest(nil, pairs[at:at+per], 0))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, _ := srv.ServeWire(ctx, frames[i%len(frames)], dst[:0]); st != http.StatusOK {
			b.Fatalf("status %d", st)
		}
	}
}

func BenchmarkServeSinglePairStringSim(b *testing.B) { benchSingle(b, "stringsim") }
func BenchmarkServeSinglePairGPT4(b *testing.B)      { benchSingle(b, "gpt-4") }
func BenchmarkServeBatched64StringSim(b *testing.B)  { benchBatched(b, "stringsim") }
func BenchmarkServeBatched64GPT4(b *testing.B)       { benchBatched(b, "gpt-4") }
func BenchmarkServeCacheHitStringSim(b *testing.B)   { benchCacheHit(b, "stringsim") }
func BenchmarkServeCacheHitGPT4(b *testing.B)        { benchCacheHit(b, "gpt-4") }

func BenchmarkWireCacheHitStringSim(b *testing.B)        { benchWireCacheHit(b, "stringsim", 1) }
func BenchmarkWireCacheHitBatch64StringSim(b *testing.B) { benchWireCacheHit(b, "stringsim", 64) }
func BenchmarkWireMissSingleStringSim(b *testing.B)      { benchWireMiss(b, "stringsim", 1) }
func BenchmarkWireMissBatch64StringSim(b *testing.B)     { benchWireMiss(b, "stringsim", 64) }
