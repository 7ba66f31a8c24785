package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestGenerateLoadCountsBacklog pins the open-loop clock: one worker
// against a 50 ms server offered a tick every 10 ms falls 40 ms further
// behind per request, and the reported tail must show that backlog.
// Timed from worker pick-up (coordinated omission) every sample would
// read about 50 ms.
func TestGenerateLoadCountsBacklog(t *testing.T) {
	srv, err := New(&stubMatcher{}, Config{MatcherName: "stub"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()

	rep, err := GenerateLoad(ts.URL, benchmarkPairs(t, "ABT", 8), LoadGenConfig{
		QPS: 100, Duration: 500 * time.Millisecond, Concurrency: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.P99Ms < 200 {
		t.Errorf("p99 = %.1f ms: the backlog behind a 50 ms server at 100 QPS is missing (want >= 200 ms)", rep.P99Ms)
	}
	if rep.OK == 0 || rep.Requests != rep.OK+rep.Rejected+rep.Errors {
		t.Errorf("requests %d != ok %d + rejected %d + errors %d (or nothing succeeded)",
			rep.Requests, rep.OK, rep.Rejected, rep.Errors)
	}
}

// TestGenerateLoadProtocols runs the generator closed-loop against a fast
// server over each protocol: every request is answered and every pair
// sent comes back predicted.
func TestGenerateLoadProtocols(t *testing.T) {
	const perRequest = 8
	pairs := benchmarkPairs(t, "ABT", 8*perRequest)
	for _, proto := range []string{ProtoJSON, ProtoBinary} {
		t.Run(proto, func(t *testing.T) {
			srv, err := New(&stubMatcher{}, Config{MatcherName: "stub"})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Shutdown()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			rep, err := GenerateLoad(ts.URL, pairs, LoadGenConfig{
				Duration: 100 * time.Millisecond, Concurrency: 2, PairsPerRequest: perRequest, Protocol: proto,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Requests == 0 || rep.OK != rep.Requests || rep.Rejected != 0 || rep.Errors != 0 {
				t.Errorf("requests %d, ok %d, rejected %d, errors %d: want every request ok",
					rep.Requests, rep.OK, rep.Rejected, rep.Errors)
			}
			if rep.Pairs != rep.OK*perRequest {
				t.Errorf("pairs = %d, want ok %d x %d", rep.Pairs, rep.OK, perRequest)
			}
		})
	}
}
