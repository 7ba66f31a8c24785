package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"

	"repro/internal/fleet"
	"repro/internal/matchers"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/serve"
	"repro/internal/snap"
	"repro/internal/stats"
	"repro/internal/textsim"
	"repro/internal/wire"
)

// layerRounds is how often each layer measurement walks the working
// set; the reported value is the median round.
const layerRounds = 9

// missRounds is layerRounds for the calls that score every pair, which
// take about a second per round.
const missRounds = 3

// outDir receives the span files of traced runs; benchmark/.gitignore
// keeps it out of the tree.
const outDir = "benchmark/out"

// layerTimer times calls into one layer's public functions on the bytes
// the workload sends: one span per call on one request's worth of data.
type layerTimer struct {
	tr       *tracer
	ws       []*request
	spanCost float64 // ns a span adds to what it wraps
}

func newLayerTimer(tr *tracer, ws []*request) *layerTimer {
	lt := &layerTimer{tr: tr, ws: ws}
	costs := make([]float64, 2001)
	for i := range costs {
		costs[i] = float64(tr.end(tr.start("span.cost", 0, -1)))
	}
	lt.spanCost = stats.Median(costs)
	return lt
}

// perPair calls fn once per working-set request for rounds rounds and
// returns nanoseconds per pair, read the way the end-to-end numbers are:
// a round's span times summed over the working set, less what the spans
// themselves cost, and the median over the rounds.
func (lt *layerTimer) perPair(name string, rounds int, fn func(i int, r *request)) float64 {
	return lt.interleaved(rounds, []string{name}, fn)[0]
}

// interleaved is perPair for several calls that are compared with each
// other. The calls take turns round by round, so slow drift of the host
// lands on all alike. In its turn a call walks the whole working set
// twice and only the second walk counts, so every counted walk finds the
// CPU's caches as its own kind leaves them, not as the neighbour did.
func (lt *layerTimer) interleaved(rounds int, names []string, fns ...func(i int, r *request)) []float64 {
	n := len(lt.ws)
	perRound := make([][]float64, len(fns))
	for k := 0; k < rounds; k++ {
		for f, fn := range fns {
			if len(fns) > 1 {
				for i, r := range lt.ws {
					fn(i, r)
				}
			}
			var total int64
			for i, r := range lt.ws {
				id := lt.tr.start(names[f], 0, int64(i))
				fn(i, r)
				total += lt.tr.end(id)
			}
			perRound[f] = append(perRound[f], (float64(total)-lt.spanCost*float64(n))/float64(n*pairsPerRequest))
		}
	}
	out := make([]float64, len(fns))
	for f := range out {
		out[f] = stats.Median(perRound[f])
	}
	return out
}

// traceServing is the traced variant of a serving run: the same passes
// with spans on, then every layer on the workload's path timed from
// outside on the workload's own request bytes.
func traceServing(st *servingState, c *client, plain *measurement, opt options, res *result) error {
	sp := st.spec
	tr := newTracer()
	if st.transport != nil {
		st.transport.tracer.Store(tr)
	}
	traced := st.measure(c, tracePasses, tr)
	if st.transport != nil {
		st.transport.tracer.Store(nil)
	}
	res.attempted += traced.attempted
	res.failed += traced.failed
	traced.check("traced passes", res)
	passSpans := tr.snapshot()

	pairs := plain.pairsPerPass() * float64(plain.passes)
	res.set("bench.trace_overhead_ratio", 1-traced.throughput()/plain.throughput())
	res.set("runtime.allocs_per_pair", float64(plain.mem.mallocs)/pairs)
	res.set("runtime.alloc_bytes_per_pair", float64(plain.mem.bytes)/pairs)
	res.set("runtime.gc_cycles", float64(plain.mem.gcCycles))
	res.set("runtime.gc_pause_ms_total", float64(plain.mem.pauseNs)/1e6)
	res.set("serve.cache_hit_ratio", plain.hitRatio())
	res.set("loadgen.requests_total", float64(plain.attempted))
	res.set("loadgen.failed_ratio", float64(plain.failed)/float64(plain.attempted))
	lat := nsToFloats(plain.latNs)
	sort.Float64s(lat)
	res.set("loadgen.latency_p99_ms", percentile(lat, 0.99)/1e6)
	walls := append([]float64(nil), plain.wallNs...)
	sort.Float64s(walls)
	res.set("loadgen.pass_spread_ratio", percentile(walls, 0.75)/percentile(walls, 0.25))
	res.set("loadgen.quiet_throughput_pairs_s", plain.quietThroughput())

	// What a traced pass spends outside its handler spans is the client:
	// decoding the reply and checking it.
	per := sp.cyclesPerPass * sp.requests
	selfNs := append([]float64(nil), traced.wallNs...)
	handlers := 0
	for _, s := range passSpans {
		if s.Name == "handler" {
			selfNs[handlers/per] -= float64(s.End - s.Start)
			handlers++
		}
	}
	res.set("loadgen.self_us_per_pair", stats.Median(selfNs)/traced.pairsPerPass()/1e3)

	t0 := tr.start("datasets.generate", 0, -1)
	generateDatasets()
	res.set("datasets.generate_s", float64(tr.end(t0))/1e9)

	lt := newLayerTimer(tr, st.ws)
	if err := commonLayers(lt, res); err != nil {
		return err
	}
	switch {
	case sp.replicas > 0:
		fleetLayers(st, lt, &traced, passSpans, res)
	case sp.hitRatio == 0:
		if err := missLayers(st, lt, plain, res); err != nil {
			return err
		}
	}
	budget(sp, plain, opt, res)
	return writeSpans(filepath.Join(outDir, "trace-"+sp.name+".jsonl"), tr.snapshot())
}

// commonLayers times the layers every serving workload crosses, or is
// compared against: the wire codec, key building, the prediction cache,
// the ring, the matcher kernel, and a replica's hit path entered four
// ways (ServeWire, Submit, the handler with a wire body, the handler
// with a JSON body).
func commonLayers(lt *layerTimer, res *result) error {
	ctx := context.Background()
	n := len(lt.ws)
	opts := serve.CanonicalKeyOptions(record.NewSerializeCache())
	allCached := make([]bool, pairsPerRequest)
	for i := range allCached {
		allCached[i] = true
	}

	// Per-request inputs derived once: canonical keys, their ring
	// hashes, the serialized records and a response frame.
	keys := make([][][]byte, n)
	skeys := make([][]string, n)
	hashes := make([][]uint64, n)
	frames := make([][]byte, n)
	var enc snap.Enc
	skipped := 0
	for i, r := range lt.ws {
		for _, p := range r.pairs {
			k := serve.AppendPairKey(nil, p, opts)
			keys[i] = append(keys[i], k)
			skeys[i] = append(skeys[i], string(k))
			hashes[i] = append(hashes[i], fleet.KeyHash(k))
			l, rt := record.SerializeRecord(p.Left, opts), record.SerializeRecord(p.Right, opts)
			if textsim.RatcliffUpperBound(l, rt) <= 0.5 {
				skipped++
			}
		}
		enc.Reset()
		wire.AppendResponsePayload(&enc, r.want, allCached, 0, 0, 0)
		frames[i] = wire.AppendFrame(nil, wire.TResp, enc.Bytes())
	}
	res.set("textsim.upper_bound_skip_ratio", float64(skipped)/float64(n*pairsPerRequest))

	var req wire.Request
	var resp wire.Response
	var buf []byte
	var failed error
	res.set("wire.decode_req_ns_per_pair", lt.perPair("wire.decode_req", layerRounds, func(_ int, r *request) {
		_, payload, err := wire.ParseFrame(r.wire)
		if err == nil {
			err = req.Decode(payload)
		}
		if err != nil {
			failed = err
		}
	}))
	res.set("wire.encode_resp_ns_per_pair", lt.perPair("wire.encode_resp", layerRounds, func(_ int, r *request) {
		enc.Reset()
		wire.AppendResponsePayload(&enc, r.want, allCached, 0, 0, 0)
		buf = wire.AppendFrame(buf[:0], wire.TResp, enc.Bytes())
	}))
	res.set("wire.encode_req_ns_per_pair", lt.perPair("wire.encode_req", layerRounds, func(_ int, r *request) {
		buf = wire.AppendRequest(buf[:0], r.pairs, 0)
	}))
	res.set("wire.decode_resp_ns_per_pair", lt.perPair("wire.decode_resp", layerRounds, func(i int, _ *request) {
		_, payload, err := wire.ParseFrame(frames[i])
		if err == nil {
			err = resp.Decode(payload)
		}
		if err != nil {
			failed = err
		}
	}))
	res.set("serve.pairkey_ns_per_pair", lt.perPair("serve.pairkey", layerRounds, func(_ int, r *request) {
		for _, p := range r.pairs {
			buf = serve.AppendPairKey(buf[:0], p, opts)
		}
	}))
	res.set("record.serialize_ns_per_record", lt.perPair("record.serialize", layerRounds, func(_ int, r *request) {
		for _, p := range r.pairs {
			_ = record.SerializeRecord(p.Left, opts)
			_ = record.SerializeRecord(p.Right, opts)
		}
	})/2)

	full := serve.NewPredCache(hitCacheCapacity, 0)
	small := serve.NewPredCache(missCacheCapacity, 0)
	for i, r := range lt.ws {
		for j, k := range skeys[i] {
			full.Put(k, r.want[j])
		}
	}
	res.set("serve.cache_get_ns_per_pair", lt.perPair("serve.cache_get", layerRounds, func(i int, _ *request) {
		for _, k := range keys[i] {
			full.GetBytes(k)
		}
	}))
	res.set("serve.cache_put_ns_per_pair", lt.perPair("serve.cache_put", layerRounds, func(i int, r *request) {
		for j, k := range skeys[i] {
			small.Put(k, r.want[j])
		}
	}))
	res.set("fleet.keyhash_ns_per_pair", lt.perPair("fleet.keyhash", layerRounds, func(i int, _ *request) {
		for _, k := range keys[i] {
			fleet.KeyHash(k)
		}
	}))
	ring, err := fleet.NewRing(0, "r0", "r1", "r2")
	if err != nil {
		return err
	}
	res.set("fleet.ring_owner_ns_per_pair", lt.perPair("fleet.ring_owner", layerRounds, func(i int, _ *request) {
		for _, h := range hashes[i] {
			ring.Owner(h)
		}
	}))

	// A replica that holds every decision of the working set, entered
	// four ways.
	hit, err := newReplica(hitCacheCapacity, nil)
	if err != nil {
		return err
	}
	defer hit.Shutdown()
	for i, r := range lt.ws {
		for j, k := range skeys[i] {
			hit.Cache().Put(k, r.want[j])
		}
	}
	check := func(status int) {
		if status != 200 {
			failed = fmt.Errorf("layer replica answered %d", status)
		}
	}
	hc := newClient(hit.Handler())
	ways := lt.interleaved(layerRounds,
		[]string{"serve.servewire_hit", "serve.submit_hit", "serve.handler_wire_hit", "serve.handler_json_hit"},
		func(_ int, r *request) {
			var status int
			status, buf = hit.ServeWire(ctx, r.wire, buf[:0])
			check(status)
		},
		func(_ int, r *request) {
			if _, err := hit.Submit(ctx, r.pairs); err != nil {
				failed = err
			}
		},
		func(_ int, r *request) {
			hc.serve(r, false)
			check(hc.rw.status)
		},
		func(_ int, r *request) {
			hc.serve(r, true)
			check(hc.rw.status)
		})
	servewire, submit, viaWire, viaJSON := ways[0], ways[1], ways[2], ways[3]
	res.set("serve.servewire_hit_us_per_pair", servewire/1e3)
	// What ServeWire does itself on a hit, as a span's self time: the call
	// minus its three callees timed above. That is building the keys from
	// the frame views, which no public function does, and the accounting.
	v := res.values
	res.set("serve.servewire_self_us_per_pair", (servewire-v["wire.decode_req_ns_per_pair"]-v["serve.cache_get_ns_per_pair"]-v["wire.encode_resp_ns_per_pair"])/1e3)
	res.set("serve.submit_hit_us_per_pair", submit/1e3)
	res.set("serve.handler_overhead_us_per_req", (viaWire-servewire)*pairsPerRequest/1e3)
	res.set("serve.json_codec_us_per_pair", (viaJSON-viaWire)/1e3)
	return failed
}

// missLayers times the miss path entered directly, and what the
// program's own tracer costs on it.
func missLayers(st *servingState, lt *layerTimer, plain *measurement, res *result) error {
	ctx := context.Background()
	srv := st.servers[0]
	// Cumulative since the replica started: the warm-up cycle and the
	// timed passes, which do the same work.
	ss := srv.Stats()
	res.set("serve.queue_wait_p50_us", ss.QueueWaitP50Us)
	res.set("serve.queue_wait_p99_us", ss.QueueWaitP99Us)
	res.set("serve.mean_batch", ss.MeanBatch)
	res.set("serve.shed_total", float64(ss.ShedQueueFull+ss.ShedDraining+ss.ShedSLO))

	opts := serve.CanonicalKeyOptions(record.NewSerializeCache())
	texts := make([][2][]string, len(lt.ws))
	for i, r := range lt.ws {
		for _, p := range r.pairs {
			texts[i][0] = append(texts[i][0], record.SerializeRecord(p.Left, opts))
			texts[i][1] = append(texts[i][1], record.SerializeRecord(p.Right, opts))
		}
	}
	m := matchers.NewStringSim()
	out := make([]bool, pairsPerRequest)
	res.set("matchers.stringsim_us_per_pair", lt.perPair("matchers.stringsim", missRounds, func(_ int, r *request) {
		m.PredictBatchInto(matchers.Task{Pairs: r.pairs, Opts: opts}, out)
	})/1e3)
	sc := textsim.AcquireScratch()
	res.set("textsim.ratcliff_us_per_call", lt.perPair("textsim.ratcliff", missRounds-1, func(i int, _ *request) {
		for j, l := range texts[i][0] {
			sc.RatcliffObershelp(l, texts[i][1][j])
		}
	})/1e3)
	sc.Release()

	var buf []byte
	var failed error
	// The cache is smaller than a cycle, so every call below misses
	// just as the timed passes do.
	res.set("serve.servewire_miss_us_per_pair", lt.perPair("serve.servewire_miss", missRounds, func(_ int, r *request) {
		var status int
		if status, buf = srv.ServeWire(ctx, r.wire, buf[:0]); status != 200 {
			failed = fmt.Errorf("ServeWire answered %d", status)
		}
	})/1e3)
	res.set("serve.submit_miss_us_per_pair", lt.perPair("serve.submit_miss", missRounds, func(_ int, r *request) {
		if _, err := srv.Submit(ctx, r.pairs); err != nil {
			failed = err
		}
	})/1e3)
	if failed != nil {
		return failed
	}

	tsrv, err := newReplica(st.spec.cacheCapacity, obs.NewTracer())
	if err != nil {
		return err
	}
	defer tsrv.Shutdown()
	ts := *st
	ts.servers, ts.handler, ts.next = []*serve.Server{tsrv}, tsrv.Handler(), 0
	tc := newClient(ts.handler)
	for range ts.ws {
		if o := ts.send(tc, nil); !o.ok {
			return fmt.Errorf("replica with serve.Config.Tracer set: warm-up request answered %d", o.status)
		}
	}
	withTracer := ts.measure(tc, tracePasses, nil)
	withTracer.check("passes with serve.Config.Tracer set", res)
	res.set("obs.tracer_overhead_ratio", 1-withTracer.throughput()/plain.throughput())
	return nil
}

// fleetLayers reads the front's share out of the traced passes: a
// handler span's self time is what the front did itself, its
// transport.match children are the replicas' ServeWire calls.
func fleetLayers(st *servingState, lt *layerTimer, traced *measurement, passSpans []span, res *result) {
	// Per traced pass: what the front did itself, how long it waited for
	// replicas (the union of a request's sub-requests), and the
	// sub-requests' summed time.
	self := selfTimes(passSpans)
	per := st.spec.cyclesPerPass * st.spec.requests
	passOf := map[int64]int{} // handler span id → pass
	selfNs := make([]float64, traced.passes)
	waitNs := make([]float64, traced.passes)
	matchNs := make([]float64, traced.passes)
	matches := 0
	for _, s := range passSpans {
		switch s.Name {
		case "handler":
			p := len(passOf) / per
			passOf[s.ID] = p
			selfNs[p] += float64(self[s.ID])
			waitNs[p] += float64(s.End - s.Start - self[s.ID])
		case "transport.match":
			if p, ok := passOf[s.Parent]; ok {
				matchNs[p] += float64(s.End - s.Start)
				matches++
			}
		}
	}
	usPerPair := func(passes []float64) float64 { return stats.Median(passes) / traced.pairsPerPass() / 1e3 }
	subreqs := float64(matches) / float64(len(passOf))
	frontSelf := usPerPair(selfNs)
	res.set("fleet.front_self_us_per_pair", frontSelf)
	res.set("fleet.replica_wait_us_per_pair", usPerPair(waitNs))
	res.set("fleet.transport_us_per_subreq", usPerPair(matchNs)*pairsPerRequest/subreqs)
	res.set("fleet.subreqs_per_req", subreqs)
	if direct := res.values["serve.servewire_hit_us_per_pair"]; direct > 0 {
		res.set("fleet.front_overhead_ratio", frontSelf/direct)
	}

	ctx := context.Background()
	res.set("fleet.submit_us_per_pair", lt.perPair("fleet.submit", layerRounds, func(_ int, r *request) {
		if _, err := st.front.Submit(ctx, r.pairs, 0); err != nil {
			res.problem("Front.Submit: %v", err)
		}
	})/1e3)

	// Since the front was built: warm-up, untraced and traced passes.
	hedges, failovers := st.frontCounters()
	res.set("fleet.hedges_total", float64(hedges))
	res.set("fleet.failovers_total", float64(failovers))
	var most, sum float64
	for _, srv := range st.servers {
		n := float64(srv.Stats().PairsCached)
		most, sum = max(most, n), sum+n
	}
	if sum > 0 {
		res.set("fleet.load_imbalance", most/(sum/float64(len(st.servers))))
	}
}

// maxBudgetResidual is how much of the end-to-end time per pair the
// layers of a hit workload may leave unexplained, either way.
const maxBudgetResidual = 0.15

// budget prints the layers on a workload's path per pair, their sum,
// the end-to-end wall time per pair of the untraced passes, and what the
// layers leave unexplained. Layers and total are medians of wall-clock
// times; the CPU time per pair, which counts every core, is printed
// beside them.
func budget(sp *servingSpec, plain *measurement, opt options, res *result) {
	v := res.values
	type row struct {
		name string
		us   float64
	}
	rows := []row{{"loadgen.self", v["loadgen.self_us_per_pair"]}}
	ns := func(name string, share float64) row { return row{name, v[name] * share / 1e3} }
	switch {
	case sp.replicas > 0:
		rows = append(rows,
			row{"fleet.front_self", v["fleet.front_self_us_per_pair"]},
			row{"fleet.replica_wait (sub-requests, in parallel)", v["fleet.replica_wait_us_per_pair"]})
	case sp.hitRatio == 1:
		rows = append(rows,
			row{"serve.handler (ServeHTTP minus ServeWire)", v["serve.handler_overhead_us_per_req"] / pairsPerRequest},
			ns("wire.decode_req_ns_per_pair", 1),
			row{"serve.servewire_self (keys from frame views, accounting)", v["serve.servewire_self_us_per_pair"]},
			ns("serve.cache_get_ns_per_pair", 1),
			ns("wire.encode_resp_ns_per_pair", 1))
	default:
		// Half the requests carry a JSON body, half a wire body. The
		// residual holds the queue hand-off, materialising the records
		// and the string keys.
		rows = append(rows,
			row{"serve.json_codec (JSON half)", v["serve.json_codec_us_per_pair"] / 2},
			ns("wire.decode_req_ns_per_pair", 0.5),
			ns("serve.pairkey_ns_per_pair", 1),
			ns("serve.cache_get_ns_per_pair", 1),
			row{"matchers.stringsim", v["matchers.stringsim_us_per_pair"]},
			ns("serve.cache_put_ns_per_pair", 1),
			ns("wire.encode_resp_ns_per_pair", 0.5))
	}
	total := plain.wallUsPerPair()
	layers := 0.0
	res.report = append(res.report, fmt.Sprintf("budget %s (us per pair)", sp.name))
	for _, r := range rows {
		layers += r.us
		res.report = append(res.report, fmt.Sprintf("  %-58s %10.4f", r.name, r.us))
	}
	residual := (total - layers) / total
	res.report = append(res.report,
		fmt.Sprintf("  %-58s %10.4f", "sum of layers", layers),
		fmt.Sprintf("  %-58s %10.4f", "end to end: median pass wall time per pair", total),
		fmt.Sprintf("  %-58s %10.4f (%.1f%%)", "residual", total-layers, 100*residual),
		fmt.Sprintf("  %-58s %10.4f", "cpu_us_per_pair, all cores", plain.cpuUsPerPair()))
	res.set("bench.budget_residual_ratio", residual)
	if sp.hitRatio == 1 && !opt.quick && math.Abs(residual) > maxBudgetResidual {
		res.problem("budget: the layers leave %.1f%% of the end-to-end time unexplained, more than %.0f%%", 100*residual, 100*maxBudgetResidual)
	}
}
