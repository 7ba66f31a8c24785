package fleet

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/matchers"
	"repro/internal/record"
	"repro/internal/serve"
)

// inprocTransport reaches real replicas in-process: a replica's URL maps
// to its serve.Server and Match is ServeWire, so the front and N real
// request pipelines run inside one test with no sockets.
type inprocTransport map[string]*serve.Server

func (t inprocTransport) Match(ctx context.Context, url string, body []byte) (int, []byte, error) {
	srv := t[url]
	if srv == nil {
		return 0, nil, fmt.Errorf("inproc: no replica at %s", url)
	}
	status, out := srv.ServeWire(ctx, body, nil)
	return status, out, nil
}

func (t inprocTransport) Healthz(_ context.Context, url string) error {
	rec := httptest.NewRecorder()
	t[url].Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("inproc: %s/healthz: status %d", url, rec.Code)
	}
	return nil
}

func (t inprocTransport) Stats(_ context.Context, url string) (serve.Stats, error) {
	return t[url].Stats(), nil
}

// inprocFleet builds a front over n real replicas of m behind the
// in-process transport. The replicas are returned for tests that script
// them (hold a worker, drain); cleanup closes the front, then the
// replicas.
func inprocFleet(t testing.TB, m matchers.Matcher, n int, scfg serve.Config, fcfg Config) (*Front, []*serve.Server) {
	t.Helper()
	tr := inprocTransport{}
	fcfg.Transport = tr
	f, err := New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	var reps []*serve.Server
	for i := 0; i < n; i++ {
		srv, err := serve.New(m, scfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Shutdown)
		name := fmt.Sprintf("r%d", i+1)
		tr["inproc://"+name] = srv
		if err := f.AddReplica(name, "inproc://"+name); err != nil {
			t.Fatal(err)
		}
		reps = append(reps, srv)
	}
	return f, reps
}

// abtPairs returns the first n pairs of the ABT benchmark.
func abtPairs(t testing.TB, n int) []record.Pair {
	t.Helper()
	d, err := datasets.Generate("ABT", eval.DatasetSeed)
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]record.Pair, n)
	for i := range pairs {
		pairs[i] = d.Pairs[i].Pair
	}
	return pairs
}
