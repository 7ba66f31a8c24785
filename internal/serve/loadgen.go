package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/record"
	"repro/internal/wire"
)

// The load generator replays benchmark pairs against a running service at
// a target rate and reports what the paper's cost analysis can only
// estimate offline: sustained throughput, tail latency, shed rate, cache
// effectiveness and dollar cost under real concurrent traffic. Paced
// runs are open-loop: a request's latency counts from the instant the
// schedule meant to send it, so a server that falls behind shows the
// backlog instead of hiding it (no coordinated omission).

// LoadGenConfig parameterises one load-generation run.
type LoadGenConfig struct {
	// QPS is the target request arrival rate; <=0 runs closed-loop at
	// maximum throughput, each request timed from its own send.
	QPS float64
	// Duration bounds the run; defaults to 5s.
	Duration time.Duration
	// Concurrency is the number of in-flight client workers; <=0
	// defaults to 8.
	Concurrency int
	// PairsPerRequest is the request batch size; <=0 defaults to 1
	// (single-pair traffic).
	PairsPerRequest int
	// DeadlineMs is the per-request deadline forwarded to the service;
	// zero sends none.
	DeadlineMs int
	// Protocol selects the request encoding: "json" (default) or
	// "binary" (the internal/wire framed protocol).
	Protocol string
}

func (c LoadGenConfig) withDefaults() LoadGenConfig {
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.PairsPerRequest <= 0 {
		c.PairsPerRequest = 1
	}
	if c.Protocol == "" {
		c.Protocol = ProtoJSON
	}
	return c
}

// Protocol names accepted by LoadGenConfig.Protocol and emserve -proto.
const (
	ProtoJSON   = "json"
	ProtoBinary = "binary"
)

// LoadReport is the outcome of one load-generation run.
type LoadReport struct {
	Requests   int64   `json:"requests"`
	OK         int64   `json:"ok"`
	Rejected   int64   `json:"rejected"` // 429/503 responses
	Errors     int64   `json:"errors"`   // transport or 5xx failures
	Pairs      int64   `json:"pairs"`
	Elapsed    float64 `json:"elapsed_sec"`
	ReqPerSec  float64 `json:"req_per_sec"`
	PairPerSec float64 `json:"pairs_per_sec"`
	P50Ms      float64 `json:"latency_p50_ms"`
	P95Ms      float64 `json:"latency_p95_ms"`
	P99Ms      float64 `json:"latency_p99_ms"`
	CostUSD    float64 `json:"cost_usd"`
}

// GenerateLoad replays pairs (cycling) as /match requests against baseURL.
func GenerateLoad(baseURL string, pairs []record.Pair, cfg LoadGenConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()
	if len(pairs) == 0 {
		return LoadReport{}, fmt.Errorf("loadgen: no pairs to replay")
	}
	// Pre-marshal the request bodies once per distinct chunk: the
	// generator should spend its cycles on traffic, not encoding.
	var bodies [][]byte
	var post func(client *http.Client, baseURL string, body []byte) (status, npairs int, costUSD float64, err error)
	var err error
	switch cfg.Protocol {
	case ProtoJSON:
		bodies, err = marshalChunks(pairs, cfg.PairsPerRequest, cfg.DeadlineMs)
		post = postMatch
	case ProtoBinary:
		bodies = wireChunks(pairs, cfg.PairsPerRequest, cfg.DeadlineMs)
		post = postMatchWire
	default:
		return LoadReport{}, fmt.Errorf("loadgen: unknown protocol %q", cfg.Protocol)
	}
	if err != nil {
		return LoadReport{}, err
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        cfg.Concurrency * 2,
		MaxIdleConnsPerHost: cfg.Concurrency * 2,
	}}
	var rep LoadReport
	var costMicro atomic.Int64 // micro-dollars, summed atomically
	var mu sync.Mutex
	var lats []time.Duration

	// A job is one request: which body, and the instant the schedule
	// meant to send it (the zero time in closed-loop runs).
	type job struct {
		idx int
		at  time.Time
	}
	// One buffered slot per worker keeps closed-loop workers fed between
	// the driver's sends.
	jobs := make(chan job, cfg.Concurrency)
	var wg sync.WaitGroup
	wg.Add(cfg.Concurrency)
	for w := 0; w < cfg.Concurrency; w++ {
		go func() {
			defer wg.Done()
			for j := range jobs {
				body := bodies[j.idx%len(bodies)]
				t0 := j.at
				if t0.IsZero() {
					t0 = time.Now()
				}
				status, npairs, costUSD, err := post(client, baseURL, body)
				lat := time.Since(t0)
				switch {
				case err != nil:
					atomic.AddInt64(&rep.Errors, 1)
				case status == http.StatusOK:
					atomic.AddInt64(&rep.OK, 1)
					atomic.AddInt64(&rep.Pairs, int64(npairs))
					costMicro.Add(int64(costUSD * 1e6))
					mu.Lock()
					lats = append(lats, lat)
					mu.Unlock()
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					atomic.AddInt64(&rep.Rejected, 1)
				default:
					atomic.AddInt64(&rep.Errors, 1)
				}
			}
		}()
	}

	// Drive arrivals: paced when QPS > 0, closed-loop otherwise. A paced
	// tick that finds every worker busy waits its turn and keeps its
	// scheduled instant, so late ticks queue in order and their latency
	// includes the wait.
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for n := 0; time.Now().Before(deadline); n++ {
		var at time.Time
		if cfg.QPS > 0 {
			at = start.Add(time.Duration(float64(n) / cfg.QPS * float64(time.Second)))
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
		}
		jobs <- job{idx: n, at: at}
		rep.Requests++
	}
	close(jobs)
	wg.Wait()
	rep.Elapsed = time.Since(start).Seconds()
	rep.CostUSD = float64(costMicro.Load()) / 1e6
	if rep.Elapsed > 0 {
		rep.ReqPerSec = float64(rep.OK) / rep.Elapsed
		rep.PairPerSec = float64(rep.Pairs) / rep.Elapsed
	}
	rep.P50Ms, rep.P95Ms, rep.P99Ms = latencyQuantiles(lats)
	return rep, nil
}

// marshalChunks pre-encodes the replay set as /match bodies of the given
// batch size.
func marshalChunks(pairs []record.Pair, per, deadlineMs int) ([][]byte, error) {
	var bodies [][]byte
	for at := 0; at < len(pairs); at += per {
		end := at + per
		if end > len(pairs) {
			end = len(pairs)
		}
		req := MatchRequest{DeadlineMs: deadlineMs}
		for _, p := range pairs[at:end] {
			req.Pairs = append(req.Pairs, PairJSON{Left: p.Left.Values, Right: p.Right.Values})
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, b)
	}
	return bodies, nil
}

// wireChunks pre-encodes the replay set as binary request frames of the
// given batch size.
func wireChunks(pairs []record.Pair, per, deadlineMs int) [][]byte {
	var bodies [][]byte
	for at := 0; at < len(pairs); at += per {
		end := at + per
		if end > len(pairs) {
			end = len(pairs)
		}
		bodies = append(bodies, wire.AppendRequest(nil, pairs[at:end], deadlineMs))
	}
	return bodies
}

func postMatch(client *http.Client, baseURL string, body []byte) (int, int, float64, error) {
	resp, err := client.Post(baseURL+"/match", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, 0, 0, nil
	}
	var mr MatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		return resp.StatusCode, 0, 0, err
	}
	return resp.StatusCode, len(mr.Predictions), mr.CostUSD, nil
}

func postMatchWire(client *http.Client, baseURL string, body []byte) (int, int, float64, error) {
	status, reply, err := PostWire(context.Background(), client, baseURL, body)
	if err != nil || status != http.StatusOK {
		return status, 0, 0, err
	}
	var wr wire.Response
	if err := ParseWireResponse(reply, &wr); err != nil {
		return status, 0, 0, fmt.Errorf("loadgen: %w", err)
	}
	return status, len(wr.Preds), wr.CostUSD, nil
}

func latencyQuantiles(lats []time.Duration) (p50, p95, p99 float64) {
	if len(lats) == 0 {
		return 0, 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i].Microseconds()) / 1000
	}
	return at(0.50), at(0.95), at(0.99)
}

// Listen serves h on an ephemeral loopback port and returns the base URL
// plus a stop that closes the listener (a *Server behind h still needs
// Shutdown). cmd/emserve's loadgen, smoke and fleet modes use it to stand
// up a full HTTP surface — /match, /stats, /slo — without a fixed port.
func Listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}
