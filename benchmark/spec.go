package main

// This file is the benchmark's contract in code: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. BENCHMARK.json at the repository root lists exactly these
// (spec_test.go holds the two together).

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"replica-hit", "One replica, every pair already in its prediction cache: wire decode, key build, cache probe and response encode do all the work, the matcher none. Baseline the fleet is compared against."},
	{"replica-miss", "One replica whose cache is smaller than the request cycle: every pair is queued, scored by stringsim, inserted and evicted; JSON and wire bodies alternate so both request pipelines run."},
	{"fleet-hit", "The replica-hit requests through the front router over 3 in-process replicas: decode, key hash, ring split, re-encode and reassembly are measured against the direct replica."},
	{"lodo-offline", "The paper's leave-one-dataset-out sweep with cold caches: training, featurisation, the simulated LMs, the cascade and the parallel engine work; no serving layer runs."},
}

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_pairs_s", "pairs/s", "higher", 0.25},
	{"cpu_us_per_pair", "us", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"macro_f1", "f1_pts", "higher", 0.001},
}

// perLayer lists every layer metric a traced run prints. A metric whose
// layer is not on a workload's path reads 0 there.
var perLayer = []metricSpec{
	{"wire.decode_req_ns_per_pair", "ns", "lower", 0},
	{"wire.encode_resp_ns_per_pair", "ns", "lower", 0},
	{"wire.encode_req_ns_per_pair", "ns", "lower", 0},
	{"wire.decode_resp_ns_per_pair", "ns", "lower", 0},
	{"serve.pairkey_ns_per_pair", "ns", "lower", 0},
	{"serve.cache_get_ns_per_pair", "ns", "lower", 0},
	{"serve.cache_put_ns_per_pair", "ns", "lower", 0},
	{"serve.cache_hit_ratio", "ratio", "higher", 0},
	{"serve.servewire_hit_us_per_pair", "us", "lower", 0},
	{"serve.servewire_self_us_per_pair", "us", "lower", 0},
	{"serve.servewire_miss_us_per_pair", "us", "lower", 0},
	{"serve.submit_hit_us_per_pair", "us", "lower", 0},
	{"serve.submit_miss_us_per_pair", "us", "lower", 0},
	{"serve.handler_overhead_us_per_req", "us", "lower", 0},
	{"serve.json_codec_us_per_pair", "us", "lower", 0},
	{"serve.queue_wait_p50_us", "us", "lower", 0},
	{"serve.queue_wait_p99_us", "us", "lower", 0},
	{"serve.mean_batch", "pairs", "higher", 0},
	{"serve.shed_total", "count", "lower", 0},
	{"matchers.stringsim_us_per_pair", "us", "lower", 0},
	{"record.serialize_ns_per_record", "ns", "lower", 0},
	{"textsim.ratcliff_us_per_call", "us", "lower", 0},
	{"textsim.upper_bound_skip_ratio", "ratio", "higher", 0},
	{"fleet.keyhash_ns_per_pair", "ns", "lower", 0},
	{"fleet.ring_owner_ns_per_pair", "ns", "lower", 0},
	{"fleet.submit_us_per_pair", "us", "lower", 0},
	{"fleet.front_self_us_per_pair", "us", "lower", 0},
	{"fleet.replica_wait_us_per_pair", "us", "lower", 0},
	{"fleet.transport_us_per_subreq", "us", "lower", 0},
	{"fleet.subreqs_per_req", "count", "lower", 0},
	{"fleet.front_overhead_ratio", "ratio", "lower", 0},
	{"fleet.load_imbalance", "ratio", "lower", 0},
	{"fleet.hedges_total", "count", "lower", 0},
	{"fleet.failovers_total", "count", "lower", 0},
	{"matchers.ditto_train_s", "s", "lower", 0},
	{"matchers.ditto_predict_us_per_pair", "us", "lower", 0},
	{"matchers.zeroer_us_per_pair", "us", "lower", 0},
	{"matchers.jellyfish_us_per_pair", "us", "lower", 0},
	{"matchers.gpt4_us_per_pair", "us", "lower", 0},
	{"eval.cell_overhead_ratio", "ratio", "lower", 0},
	{"par.speedup", "x", "higher", 0},
	{"route.allcheap_us_per_pair", "us", "lower", 0},
	{"route.escalation_ratio", "ratio", "lower", 0},
	{"cost.tokens_per_pair", "tokens", "lower", 0},
	{"cost.usd_per_1k_pairs", "USD", "lower", 0},
	{"datasets.generate_s", "s", "lower", 0},
	{"snap.save_ms", "ms", "lower", 0},
	{"snap.restore_ms", "ms", "lower", 0},
	{"runtime.allocs_per_pair", "count", "lower", 0},
	{"runtime.alloc_bytes_per_pair", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"loadgen.latency_p99_ms", "ms", "lower", 0},
	{"loadgen.pass_spread_ratio", "ratio", "lower", 0},
	{"loadgen.quiet_throughput_pairs_s", "pairs/s", "higher", 0},
	{"loadgen.requests_total", "count", "higher", 0},
	{"loadgen.self_us_per_pair", "us", "lower", 0},
	{"loadgen.failed_ratio", "ratio", "lower", 0},
	{"obs.tracer_overhead_ratio", "ratio", "lower", 0},
	{"bench.trace_overhead_ratio", "ratio", "lower", 0},
	{"bench.budget_residual_ratio", "ratio", "lower", 0},
}

// runSeconds is BENCHMARK.json's run_seconds: about how long the timed
// passes of a run take on the 2-core reference machine. The work is
// fixed, so a slower machine measures longer, not less.
const runSeconds = 22
