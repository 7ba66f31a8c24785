package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/record"
	"repro/internal/route"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/wire"
)

// stubReplica scripts one fake replica's behaviour behind the stub
// transport: scripted failure/shed budgets, an optional block gate (for
// hedge races), and a deterministic prediction function shared by every
// healthy stub so "bit-identical" means something.
type stubReplica struct {
	mu        sync.Mutex
	calls     int
	fail      int           // next N Match calls: transport error
	shed      int           // next N Match calls: 429
	badStatus int           // when non-zero, Match answers this HTTP status, no body
	block     chan struct{} // when non-nil, Match waits here first
	delay     time.Duration // when non-zero, Match waits this long first
	health    error
	invert    bool // invert predictions (canary-mismatch scripting)
	cost      float64
	stats     serve.Stats
	statsOK   bool

	deadlines []int    // deadline_ms of every frame received
	keys      []string // canonical key of every pair received
}

// stubPred is the deterministic prediction every honest stub computes:
// parity of the first value's length. Both the incumbent and a
// bit-identical canary derive it from the pair alone.
func stubPred(v wire.PairView) bool {
	if len(v.Left) == 0 {
		return false
	}
	return len(v.Left[0])%2 == 0
}

type stubTransport struct {
	mu   sync.Mutex
	reps map[string]*stubReplica
}

func newStubTransport() *stubTransport {
	return &stubTransport{reps: make(map[string]*stubReplica)}
}

func (t *stubTransport) add(url string) *stubReplica {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := &stubReplica{}
	t.reps[url] = r
	return r
}

func (t *stubTransport) get(url string) *stubReplica {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reps[url]
}

func (t *stubTransport) Match(ctx context.Context, url string, body []byte) (int, []byte, error) {
	r := t.get(url)
	if r == nil {
		return 0, nil, fmt.Errorf("stub: no replica at %s", url)
	}
	typ, payload, err := wire.ParseFrame(body)
	if err != nil || typ != wire.TReq {
		return http.StatusBadRequest, nil, fmt.Errorf("stub: bad frame: %v", err)
	}
	var req wire.Request
	if err := req.Decode(payload); err != nil {
		return http.StatusBadRequest, nil, err
	}
	r.mu.Lock()
	r.calls++
	r.deadlines = append(r.deadlines, req.DeadlineMs)
	for i := range req.Pairs {
		r.keys = append(r.keys, string(serve.AppendViewKey(nil, &req.Pairs[i])))
	}
	blk, delay := r.block, r.delay
	r.mu.Unlock()
	if delay > 0 {
		blk = make(chan struct{})
		time.AfterFunc(delay, func() { close(blk) })
	}
	if blk != nil {
		select {
		case <-blk:
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
	r.mu.Lock()
	if r.fail > 0 {
		r.fail--
		r.mu.Unlock()
		return 0, nil, errors.New("stub: connection refused")
	}
	if r.shed > 0 {
		r.shed--
		r.mu.Unlock()
		return http.StatusTooManyRequests, nil, nil
	}
	if r.badStatus != 0 {
		s := r.badStatus
		r.mu.Unlock()
		return s, nil, nil
	}
	invert := r.invert
	cost := r.cost
	r.mu.Unlock()

	preds := make([]bool, len(req.Pairs))
	cached := make([]bool, len(req.Pairs))
	for i, v := range req.Pairs {
		preds[i] = stubPred(v) != invert
		cached[i] = true
	}
	var e snap.Enc
	wire.AppendResponsePayload(&e, preds, cached, cost, 0, 0)
	return http.StatusOK, wire.AppendFrame(nil, wire.TResp, e.Bytes()), nil
}

func (t *stubTransport) Healthz(ctx context.Context, url string) error {
	r := t.get(url)
	if r == nil {
		return fmt.Errorf("stub: no replica at %s", url)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

func (t *stubTransport) Stats(ctx context.Context, url string) (serve.Stats, error) {
	r := t.get(url)
	if r == nil {
		return serve.Stats{}, fmt.Errorf("stub: no replica at %s", url)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.statsOK {
		return serve.Stats{}, errors.New("stub: stats unavailable")
	}
	return r.stats, nil
}

// mkPairs builds n distinct pairs; value lengths vary so stubPred
// exercises both outcomes.
func mkPairs(n int) []record.Pair {
	out := make([]record.Pair, n)
	for i := range out {
		l := fmt.Sprintf("left-%d", i)
		if i%3 == 0 {
			l += "x"
		}
		out[i] = record.Pair{
			Left:  record.Record{Values: []string{l, "alpha"}},
			Right: record.Record{Values: []string{fmt.Sprintf("right-%d", i), "beta"}},
		}
	}
	return out
}

// wantPreds computes what every honest stub would answer, through the
// same wire round-trip the transport performs.
func wantPreds(t *testing.T, pairs []record.Pair) []bool {
	t.Helper()
	body := wire.AppendRequest(nil, pairs, 0)
	_, payload, err := wire.ParseFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	var req wire.Request
	if err := req.Decode(payload); err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(req.Pairs))
	for i, v := range req.Pairs {
		out[i] = stubPred(v)
	}
	return out
}

// testFront builds a Front on a virtual clock and a stub transport with
// the given replica names (URL = "stub://" + name).
func testFront(t *testing.T, cfg Config, names ...string) (*Front, *stubTransport, *clock.Virtual) {
	t.Helper()
	st := newStubTransport()
	vc := &clock.Virtual{}
	cfg.Transport = st
	cfg.Clock = vc
	cfg.HedgeDisabled = cfg.HedgeAfter == 0 // deterministic unless a test opts in
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	for _, n := range names {
		st.add("stub://" + n)
		if err := f.AddReplica(n, "stub://"+n); err != nil {
			t.Fatal(err)
		}
	}
	return f, st, vc
}

// ownerOf computes the ring owner of a pair the same way Submit does.
func ownerOf(f *Front, p record.Pair) string {
	key := serve.AppendPairKey(nil, p, serve.CanonicalKeyOptions(nil))
	return f.Ring().Owner(KeyHash(key))
}

// pairOwnedBy finds a pair whose ring owner is name.
func pairOwnedBy(t *testing.T, f *Front, name string) record.Pair {
	t.Helper()
	for i := 0; i < 10000; i++ {
		p := record.Pair{
			Left:  record.Record{Values: []string{fmt.Sprintf("seek-%d", i)}},
			Right: record.Record{Values: []string{"target"}},
		}
		if ownerOf(f, p) == name {
			return p
		}
	}
	t.Fatalf("no pair found owned by %s", name)
	return record.Pair{}
}

func TestFrontFanoutAndReassembly(t *testing.T) {
	f, st, _ := testFront(t, Config{}, "r1", "r2", "r3")
	pairs := mkPairs(96)
	want := wantPreds(t, pairs)
	res, err := f.Submit(context.Background(), pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if res.Preds[i] != want[i] {
			t.Fatalf("pair %d: pred %v, want %v (reassembly order broken)", i, res.Preds[i], want[i])
		}
		if !res.Cached[i] {
			t.Fatalf("pair %d: cached flag lost in reassembly", i)
		}
	}
	// All three replicas must have participated: 96 keys spread over a
	// 3-member ring never land on one member.
	for _, n := range []string{"r1", "r2", "r3"} {
		if st.get("stub://"+n).calls == 0 {
			t.Fatalf("replica %s never called", n)
		}
	}
	if got := f.metrics.requestsOK.Load(); got != 1 {
		t.Fatalf("requestsOK = %d, want 1", got)
	}
}

func TestFrontCostAndTokensAggregate(t *testing.T) {
	f, st, _ := testFront(t, Config{}, "r1", "r2")
	st.get("stub://r1").cost = 0.25
	st.get("stub://r2").cost = 0.5
	pairs := []record.Pair{pairOwnedBy(t, f, "r1"), pairOwnedBy(t, f, "r2")}
	res, err := f.Submit(context.Background(), pairs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CostUSD < 0.74 || res.CostUSD > 0.76 {
		t.Fatalf("CostUSD = %v, want ~0.75 (sum over sub-batches)", res.CostUSD)
	}
}

func TestFrontFailoverServesThroughDeath(t *testing.T) {
	f, st, vc := testFront(t, Config{}, "r1", "r2", "r3")
	dead := st.get("stub://r1")
	dead.mu.Lock()
	dead.fail = 1 << 30 // hard down
	dead.health = errors.New("stub: down")
	dead.mu.Unlock()

	pairs := mkPairs(60)
	want := wantPreds(t, pairs)
	// Every request must still be answered correctly; r1's sub-batches
	// fail over to ring successors.
	for round := 0; round < 3; round++ {
		res, err := f.Submit(context.Background(), pairs, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range pairs {
			if res.Preds[i] != want[i] {
				t.Fatalf("round %d pair %d: wrong prediction after failover", round, i)
			}
		}
	}
	if f.metrics.failovers.Load() == 0 {
		t.Fatal("no failovers recorded while a replica was down")
	}
	// The failures tripped r1's breaker (threshold 3) — it is ejected.
	if got := f.Replica("r1").Breaker().State(); got != route.Open {
		t.Fatalf("r1 breaker %v after sustained failures, want open", got)
	}
	// Ejected: new requests skip r1 entirely.
	before := dead.calls
	if _, err := f.Submit(context.Background(), pairs, 0); err != nil {
		t.Fatal(err)
	}
	if dead.calls != before {
		t.Fatalf("ejected replica still receiving requests (%d -> %d)", before, dead.calls)
	}

	// Recovery is probe-owned: while cooling, ProbeAll does not probe;
	// after the cooldown a healthy probe re-closes the breaker.
	f.ProbeAll(context.Background())
	if got := f.Replica("r1").Breaker().State(); got != route.Open {
		t.Fatalf("breaker %v before cooldown, want open", got)
	}
	dead.mu.Lock()
	dead.fail = 0
	dead.health = nil
	dead.mu.Unlock()
	vc.Sleep(3 * time.Second) // past the 2s fleet cooldown
	f.ProbeAll(context.Background())
	if got := f.Replica("r1").Breaker().State(); got != route.Closed {
		t.Fatalf("breaker %v after healthy probe, want closed", got)
	}
	// Re-admitted: r1 serves its keys again.
	before = dead.calls
	if _, err := f.Submit(context.Background(), []record.Pair{pairOwnedBy(t, f, "r1")}, 0); err != nil {
		t.Fatal(err)
	}
	if dead.calls == before {
		t.Fatal("recovered replica not re-admitted to the ring walk")
	}
}

func TestFrontAllReplicasDownErrors(t *testing.T) {
	f, st, _ := testFront(t, Config{}, "r1", "r2")
	for _, n := range []string{"r1", "r2"} {
		r := st.get("stub://" + n)
		r.mu.Lock()
		r.fail = 1 << 30
		r.mu.Unlock()
	}
	_, err := f.Submit(context.Background(), mkPairs(4), 0)
	if err == nil {
		t.Fatal("Submit succeeded with every replica down")
	}
	if f.metrics.errors.Load() == 0 {
		t.Fatal("request error not counted")
	}
}

func TestFrontConcurrentMixedErrorTypes(t *testing.T) {
	// Two sub-batches failing with differently-typed errors — a
	// %w-wrapped transport error vs a plain "answered status" error —
	// must surface one of them, not panic. The old atomic.Value error
	// slot required every store to share one concrete type and blew up
	// exactly during a multi-replica outage.
	f, st, _ := testFront(t, Config{}, "r1", "r2")
	r1 := st.get("stub://r1")
	r1.mu.Lock()
	r1.fail = 1 << 30 // transport errors: %w-wrapped by sendOnce
	r1.mu.Unlock()
	r2 := st.get("stub://r2")
	r2.mu.Lock()
	r2.badStatus = http.StatusInternalServerError // plain fmt.Errorf
	r2.mu.Unlock()

	pairs := []record.Pair{pairOwnedBy(t, f, "r1"), pairOwnedBy(t, f, "r2")}
	if _, err := f.Submit(context.Background(), pairs, 0); err == nil {
		t.Fatal("Submit succeeded with every replica failing")
	}
	if f.metrics.errors.Load() == 0 {
		t.Fatal("request error not counted")
	}
}

func TestFrontShedDownWeights(t *testing.T) {
	f, st, vc := testFront(t, Config{
		ShedPenalty:        time.Second,
		ShedDivertPermille: 1000, // every key diverts during the window
	}, "r1", "r2")
	p := pairOwnedBy(t, f, "r1")
	shedder := st.get("stub://r1")
	shedder.mu.Lock()
	shedder.shed = 1
	shedder.mu.Unlock()

	// First submit: r1 sheds, failover serves via r2, penalty window
	// opens.
	if _, err := f.Submit(context.Background(), []record.Pair{p}, 0); err != nil {
		t.Fatal(err)
	}
	if f.Replica("r1").sheds.Load() != 1 {
		t.Fatal("shed not recorded")
	}
	// During the window the key diverts straight to r2 — r1 untouched.
	before := shedder.calls
	if _, err := f.Submit(context.Background(), []record.Pair{p}, 0); err != nil {
		t.Fatal(err)
	}
	if shedder.calls != before {
		t.Fatalf("penalized replica still primary (%d -> %d)", before, shedder.calls)
	}
	if f.metrics.diverts.Load() == 0 {
		t.Fatal("divert not counted")
	}
	// Past the window the key returns home.
	vc.Sleep(2 * time.Second)
	before = shedder.calls
	if _, err := f.Submit(context.Background(), []record.Pair{p}, 0); err != nil {
		t.Fatal(err)
	}
	if shedder.calls == before {
		t.Fatal("replica still penalized after the window elapsed")
	}
}

func TestFrontHedgeWinsOnStraggler(t *testing.T) {
	f, st, _ := testFront(t, Config{HedgeAfter: 2 * time.Millisecond}, "r1", "r2")
	p := pairOwnedBy(t, f, "r1")
	want := wantPreds(t, []record.Pair{p})

	straggler := st.get("stub://r1")
	gate := make(chan struct{})
	straggler.mu.Lock()
	straggler.block = gate
	straggler.mu.Unlock()
	defer close(gate) // release the parked goroutine at test end

	res, err := f.Submit(context.Background(), []record.Pair{p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Preds[0] != want[0] {
		t.Fatal("hedged response has wrong prediction")
	}
	if f.metrics.hedges.Load() != 1 || f.metrics.hedgeWins.Load() != 1 {
		t.Fatalf("hedges=%d hedgeWins=%d, want 1/1",
			f.metrics.hedges.Load(), f.metrics.hedgeWins.Load())
	}
	if st.get("stub://r2").calls != 1 {
		t.Fatal("hedge target was not called")
	}
}

func TestFrontRejectsOversizedBatch(t *testing.T) {
	f, _, _ := testFront(t, Config{MaxPairsPerRequest: 8}, "r1")
	_, err := f.Submit(context.Background(), mkPairs(9), 0)
	if !errors.Is(err, serve.ErrTooLarge) {
		t.Fatalf("err = %v, want serve.ErrTooLarge", err)
	}
}

func TestFrontStatsSnapshot(t *testing.T) {
	f, st, _ := testFront(t, Config{MatcherName: "jaccard"}, "r1", "r2")
	live := st.get("stub://r1")
	live.mu.Lock()
	live.statsOK = true
	live.stats = serve.Stats{SchemaVersion: serve.StatsSchemaVersion, PairsScored: 7, PairsCached: 3, TotalCostUSD: 0.5}
	live.mu.Unlock()
	if _, err := f.Submit(context.Background(), mkPairs(10), 0); err != nil {
		t.Fatal(err)
	}

	snap := f.Stats(context.Background())
	if snap.SchemaVersion != FleetStatsSchemaVersion || snap.Matcher != "jaccard" {
		t.Fatalf("header = %+v", snap)
	}
	if len(snap.Replicas) != 2 || snap.Replicas[0].Name != "r1" || snap.Replicas[1].Name != "r2" {
		t.Fatalf("replica rows = %+v", snap.Replicas)
	}
	if snap.Replicas[0].Stats == nil || snap.Replicas[0].Stats.PairsScored != 7 {
		t.Fatalf("r1 scrape not embedded: %+v", snap.Replicas[0])
	}
	if snap.Replicas[1].Stats != nil || snap.Replicas[1].StatsErr == "" {
		t.Fatalf("r2 failed scrape should carry StatsErr: %+v", snap.Replicas[1])
	}
	if snap.Fleet.PairsScored != 7 || snap.Fleet.TotalCostUSD != 0.5 {
		t.Fatalf("aggregate sums wrong: %+v", snap.Fleet)
	}
	if snap.Fleet.Requests != 1 || snap.Fleet.Pairs != 10 || snap.Fleet.Healthy != 2 {
		t.Fatalf("aggregate counters wrong: %+v", snap.Fleet)
	}
}

func TestFrontDuplicateReplicaRejected(t *testing.T) {
	f, _, _ := testFront(t, Config{}, "r1")
	if err := f.AddReplica("r1", "stub://other"); err == nil {
		t.Fatal("duplicate replica name accepted")
	}
	if err := f.RemoveReplica("nope"); err == nil {
		t.Fatal("removing unknown replica succeeded")
	}
}

// TestFrontForwardsRemainingDeadline: every attempt's frame carries the
// time the request has left, not the deadline it arrived with. A 200 ms
// request whose owner fails after 40 ms fails over with at most 160 ms.
func TestFrontForwardsRemainingDeadline(t *testing.T) {
	f, st, _ := testFront(t, Config{}, "r1", "r2")
	p := pairOwnedBy(t, f, "r1")
	owner := st.get("stub://r1")
	owner.mu.Lock()
	owner.fail = 1
	owner.delay = 40 * time.Millisecond
	owner.mu.Unlock()

	if _, err := f.Submit(context.Background(), []record.Pair{p}, 200); err != nil {
		t.Fatal(err)
	}
	first, failover := owner.deadlines, st.get("stub://r2").deadlines
	if len(first) != 1 || first[0] <= 160 || first[0] > 200 {
		t.Fatalf("owner received deadlines %v, want one in (160, 200]", first)
	}
	if len(failover) != 1 || failover[0] <= 0 || failover[0] > 160 {
		t.Fatalf("failover received deadlines %v, want one in (0, 160]", failover)
	}
}

// TestFrontOnePlacement: the wire path and Front.Submit send every pair to
// the ring owner of its canonical key, over a stride of every dataset's
// pairs, and the ring hash of a fixed key is pinned so the next change to
// placement is a deliberate one.
func TestFrontOnePlacement(t *testing.T) {
	const golden uint64 = 0xefac573e412f84f6
	if got := KeyHash(benchKey); got != golden {
		t.Fatalf("KeyHash(%q) = %#x, want %#x: placement changed", benchKey, got, golden)
	}

	f, st, _ := testFront(t, Config{}, "r1", "r2", "r3")
	var pairs []record.Pair
	for _, d := range datasets.GenerateAllParallel(eval.DatasetSeed, 2) {
		for i := 0; i < len(d.Pairs); i += 97 {
			pairs = append(pairs, d.Pairs[i].Pair)
		}
	}
	want := map[string]string{} // canonical key → ring owner
	for _, p := range pairs {
		key := serve.AppendPairKey(nil, p, serve.CanonicalKeyOptions(nil))
		want[string(key)] = "stub://" + f.Ring().Owner(KeyHash(key))
	}
	// placed drains what the replicas received: canonical key → replica.
	placed := func() map[string]string {
		got := map[string]string{}
		for url, r := range st.reps {
			r.mu.Lock()
			for _, k := range r.keys {
				if prev, ok := got[k]; ok && prev != url {
					t.Fatalf("key %q sent to %s and %s", k, prev, url)
				}
				got[k] = url
			}
			r.keys = nil
			r.mu.Unlock()
		}
		return got
	}
	h := f.Handler()
	for _, entry := range []string{"Submit", "wire"} {
		for at := 0; at < len(pairs); at += 64 {
			batch := pairs[at:min(at+64, len(pairs))]
			if entry == "Submit" {
				if _, err := f.Submit(context.Background(), batch, 0); err != nil {
					t.Fatal(err)
				}
				continue
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/match", bytes.NewReader(wire.AppendRequest(nil, batch, 0)))
			req.Header.Set("Content-Type", wire.ContentType)
			if h.ServeHTTP(rec, req); rec.Code != http.StatusOK {
				t.Fatalf("wire batch at %d: status %d", at, rec.Code)
			}
		}
		got := placed()
		if len(got) != len(want) {
			t.Fatalf("%s: replicas received %d distinct keys, want %d", entry, len(got), len(want))
		}
		for k, owner := range want {
			if got[k] != owner {
				t.Fatalf("%s: key %q went to %s, its ring owner is %s", entry, k, got[k], owner)
			}
		}
	}
}
