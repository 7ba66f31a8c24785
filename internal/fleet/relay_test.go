package fleet

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/matchers"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/wire"
)

// hangKey marks a request context whose every sub-request hangs until the
// context is cancelled.
type hangKey struct{}

// lingeringTransport reaches real in-process replicas and reads every
// frame it is handed for as long as it may under the Transport contract,
// counting any change to a byte of it: for the whole call, and, when the
// call returns an error, for lingerFor after it, as net/http may. Every
// seventh call fails after 2 ms, so the front fails over under a new
// deadline while it still reads; every fourth straggles past the hedge
// threshold, so the front returns while it still reads; calls on a
// hangKey context wait for the cancellation.
type lingeringTransport struct {
	inprocTransport
	calls   atomic.Int64
	changed atomic.Int64
	readers sync.WaitGroup
}

const lingerFor = 20 * time.Millisecond

func (t *lingeringTransport) Match(ctx context.Context, url string, body []byte) (status int, resp []byte, err error) {
	entry := append([]byte(nil), body...)
	var mu sync.Mutex
	returned := false   // guarded by mu
	var until time.Time // guarded by mu: when the reading ends once returned
	t.readers.Add(1)
	go func() {
		defer t.readers.Done()
		for {
			mu.Lock()
			if returned && !time.Now().Before(until) {
				mu.Unlock()
				return
			}
			same := bytes.Equal(body, entry)
			mu.Unlock()
			if !same {
				t.changed.Add(1)
				return
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()
	defer func() {
		mu.Lock()
		returned = true
		if err != nil {
			until = time.Now().Add(lingerFor)
		}
		mu.Unlock()
	}()

	var wait <-chan time.Time
	n := int64(0)
	if ctx.Value(hangKey{}) == nil {
		n = t.calls.Add(1)
		switch {
		case n%7 == 0:
			wait = time.After(2 * time.Millisecond)
		case n%4 == 0:
			wait = time.After(5 * time.Millisecond)
		}
	}
	if wait != nil || n == 0 {
		select {
		case <-wait:
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	if n%7 == 0 {
		return 0, nil, errors.New("lingering: connection reset")
	}
	return t.inprocTransport.Match(ctx, url, body)
}

// TestSubFrameLifetime: a sub-frame is never rewritten or recycled while
// an attempt handed it may still read it — not after a hedge lets the
// front return without its straggler, and not after a cancelled context
// does — on either entry point, and every answer is still the offline
// one. Run it under -race.
func TestSubFrameLifetime(t *testing.T) {
	pairs := abtPairs(t, 256)
	offline := matchers.NewStringSim().Predict(matchers.Task{Pairs: pairs})
	tr := &lingeringTransport{inprocTransport: inprocTransport{}}
	// Breakers never trip, so the scripted failures cannot eject a replica
	// and every straggler has a hedge target.
	f, err := New(Config{MatcherName: "stringsim", Transport: tr, HedgeAfter: time.Millisecond,
		Breaker: route.BreakerConfig{FailureThreshold: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for _, name := range []string{"r1", "r2", "r3"} {
		srv, err := serve.New(matchers.NewStringSim(), serve.Config{MatcherName: "stringsim", CacheCapacity: 1 << 12, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		tr.inprocTransport["inproc://"+name] = srv
		if err := f.AddReplica(name, "inproc://"+name); err != nil {
			t.Fatal(err)
		}
	}
	h := f.Handler()

	const requests, clients, batch = 400, 4, 16
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < requests; k += clients {
				at := k * 7 % (len(pairs) - batch)
				ps, want := pairs[at:at+batch], offline[at:at+batch]
				ctx := context.Background()
				deadlineMs := 1000 // so a failover frame's header differs
				hang := k%5 == 0
				if hang {
					deadlineMs = 0
					var cancel context.CancelFunc
					ctx, cancel = context.WithCancel(context.WithValue(ctx, hangKey{}, true))
					time.AfterFunc(3*time.Millisecond, cancel)
				}
				var got []bool
				if k%2 == 0 {
					res, err := f.Submit(ctx, ps, deadlineMs)
					if hang {
						if !errors.Is(err, context.Canceled) {
							t.Errorf("request %d: cancelled Submit returned %v", k, err)
						}
						continue
					}
					if err != nil {
						t.Errorf("request %d: %v", k, err)
						continue
					}
					got = res.Preds
				} else {
					rec := httptest.NewRecorder()
					req := httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(wire.AppendRequest(nil, ps, deadlineMs))).WithContext(ctx)
					req.Header.Set("Content-Type", wire.ContentType)
					h.ServeHTTP(rec, req)
					if hang {
						if rec.Code != http.StatusServiceUnavailable {
							t.Errorf("request %d: cancelled wire request answered %d", k, rec.Code)
						}
						continue
					}
					var wr wire.Response
					if err := serve.ParseWireResponse(rec.Body.Bytes(), &wr); err != nil {
						t.Errorf("request %d: status %d: %v", k, rec.Code, err)
						continue
					}
					got = wr.Preds
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("request %d pair %d: served %v, offline %v", k, j, got[j], want[j])
						break
					}
				}
			}
		}(c)
	}
	wg.Wait()
	tr.readers.Wait()
	if n := tr.changed.Load(); n != 0 {
		t.Fatalf("%d sub-frames changed under an attempt still reading them", n)
	}
	if f.metrics.hedges.Load() == 0 || f.metrics.failovers.Load() == 0 {
		t.Fatalf("%d hedges and %d failovers: a path went untested", f.metrics.hedges.Load(), f.metrics.failovers.Load())
	}
}
