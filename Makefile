# Build/verify entry points for the reproduction study.

GO ?= go

.PHONY: build test bench bench-json bench-json-serve bench-json-obs bench-json-snap bench-json-wire bench-json-dedup bench-json-route bench-json-slo bench-json-fleet wire-alloc-gate verify-parallel vet serve-smoke route-smoke slo-smoke fleet-smoke loadgen-report trace-demo snap-verify dedup-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Scaling benchmarks of the parallel evaluation engine.
bench:
	$(GO) test -bench 'EvaluateAllParallel|Table3Parallel' -benchtime=1x -run '^$$' .

# Component microbenchmarks of the similarity/featurisation hot path,
# recorded as JSON for regression tracking (see EXPERIMENTS.md).
bench-json:
	$(GO) test -run '^$$' -bench 'RatcliffObershelp|QGramJaccard|EncoderEncode|TokenizerCount|BlockingCandidates' \
		-benchtime=1s -benchmem . | $(GO) run ./cmd/benchjson > BENCH_pr2.json
	@cat BENCH_pr2.json

# Serving benchmarks of the online matching pipeline (single-pair latency,
# batched throughput, cache-hit fast path), recorded as JSON for
# regression tracking (see EXPERIMENTS.md "Online serving").
bench-json-serve:
	$(GO) test -run '^$$' -bench 'ServeSingle|ServeBatched|ServeCacheHit' \
		-benchtime=1s -benchmem ./internal/serve | $(GO) run ./cmd/benchjson > BENCH_pr3.json
	@cat BENCH_pr3.json

# Observability overhead benchmarks: the disabled-instrumentation fast
# path (must stay 0 allocs/op on the hot kernels) versus enabled tracing,
# recorded as JSON for regression tracking (see EXPERIMENTS.md).
bench-json-obs:
	$(GO) test -run '^$$' -bench 'ObsDisabled|ObsEnabled|StagesDisabled' \
		-benchtime=1s -benchmem . ./internal/obs | $(GO) run ./cmd/benchjson > BENCH_pr4.json
	@cat BENCH_pr4.json

# Checkpoint benchmarks: cold-train versus warm-restore per matcher class,
# plus raw codec encode/decode throughput, recorded as JSON for regression
# tracking (see EXPERIMENTS.md "Checkpointing & warm start").
bench-json-snap:
	$(GO) test -run '^$$' -bench 'SnapTrainCold|SnapRestoreWarm|SnapEncode|SnapDecode' \
		-benchtime=1s -benchmem ./internal/snap | $(GO) run ./cmd/benchjson > BENCH_pr5.json
	@cat BENCH_pr5.json

# Zero-copy hot-path benchmarks: the binary wire protocol through
# ServeWire (cache-hit and scoring paths), recorded as JSON for regression
# tracking (see EXPERIMENTS.md "Zero-copy hot path"). benchjson -zero
# fails the target if the cache-hit wire path ever allocates.
bench-json-wire:
	$(GO) test -run '^$$' -bench 'WireCacheHit|WireMiss' \
		-benchtime=1s -benchmem ./internal/serve | $(GO) run ./cmd/benchjson -zero 'WireCacheHit' > BENCH_pr6.json
	@cat BENCH_pr6.json

# Dataset-scale dedup benchmarks: index build and probe throughput (the
# probe path is gated at 0 allocs/op), the LSH-versus-token-blocker
# comparison at 20k, then the full 1M-record comparison (the token side
# extrapolates from 25k/100k samples, the LSH side runs the million
# records for real — the 1M half takes tens of minutes on one core).
# The two DedupCompare rows are distinguished by their "records" metric.
# Recorded as JSON for regression tracking (see EXPERIMENTS.md
# "Dataset-scale dedup").
bench-json-dedup:
	$(GO) test -run '^$$' -bench 'DedupIndexBuild|DedupProbeStored|DedupProbeRecord|DedupSignature' \
		-benchtime=1s -benchmem ./internal/blocking/lsh > /tmp/bench-dedup.txt
	$(GO) test -run '^$$' -bench 'DedupPipeline|DedupCompare' \
		-benchtime=1x -benchmem ./internal/dedup >> /tmp/bench-dedup.txt
	DEDUP_COMPARE_N=1000000 $(GO) test -run '^$$' -bench 'DedupCompare' \
		-benchtime=1x -benchmem -timeout 2h ./internal/dedup >> /tmp/bench-dedup.txt
	cat /tmp/bench-dedup.txt | $(GO) run ./cmd/benchjson -zero 'DedupProbeStored' > BENCH_pr7.json
	@cat BENCH_pr7.json

# Routing hot-path benchmark: the all-cheap cascade path (free tier
# decides, no escalation) is gated at 0 allocs/op, recorded as JSON for
# regression tracking (see EXPERIMENTS.md "Quality-vs-dollars frontier").
bench-json-route:
	$(GO) test -run '^$$' -bench 'RouteAllCheap' \
		-benchtime=1s -benchmem ./internal/route | $(GO) run ./cmd/benchjson -zero 'RouteAllCheap' > BENCH_pr8.json
	@cat BENCH_pr8.json

# SLO/flight-recorder benchmarks: flight-ring writes (enabled and
# disabled paths both gated at 0 allocs/op), ring snapshots, and the SLO
# engine's tick (disabled path gated at 0 allocs/op), recorded as JSON
# for regression tracking (see EXPERIMENTS.md "SLOs, burn rates and the
# flight recorder"). Diffable against earlier archives with
# `benchjson -baseline BENCH_prN.json`.
bench-json-slo:
	$(GO) test -run '^$$' -bench 'FlightWrite|FlightDisabled|FlightSnapshot|SLOTick|SLODisabled' \
		-benchtime=1s -benchmem ./internal/flight ./internal/slo \
		| $(GO) run ./cmd/benchjson -zero 'FlightWrite|FlightDisabled|SLODisabled' > BENCH_pr9.json
	@cat BENCH_pr9.json

# Sharded-fleet benchmarks: the consistent-hash hot path (Owner,
# Successors, KeyHash — all gated at 0 allocs/op; the router walks them
# per pair) plus a re-run of the PR 9 flight/slo rows so the archive
# overlaps its predecessor, diffed against BENCH_pr9.json (benchjson
# -baseline exits non-zero on regressions in the overlapping rows).
bench-json-fleet:
	$(GO) test -run '^$$' -bench 'RingOwner|RingSuccessors|KeyHash' \
		-benchtime=1s -benchmem ./internal/fleet > /tmp/bench-fleet.txt
	$(GO) test -run '^$$' -bench 'FlightWrite|FlightDisabled|FlightSnapshot|SLOTick|SLODisabled' \
		-benchtime=1s -benchmem ./internal/flight ./internal/slo >> /tmp/bench-fleet.txt
	cat /tmp/bench-fleet.txt | $(GO) run ./cmd/benchjson \
		-zero 'RingOwner|RingSuccessors|KeyHash|FlightWrite|FlightDisabled|SLODisabled' \
		-baseline BENCH_pr9.json > BENCH_pr10.json
	@cat BENCH_pr10.json

# Sharded-fleet gate: ring/front/canary unit tests (deterministic
# placement, bounded rebalance, failover, hedging, shed down-weighting,
# canary bit-identity) and the /match conformance table that sends every
# case to a replica's handler and to the front's (same status, headers
# and reply shape), the fleet-aware emwatch modes, then the emfleet
# -smoke end-to-end run — 3 replicas warm-started from one snapshot,
# bit-identity against a single-replica baseline, measured per-replica
# load within 1.5x the mean, a mid-run replica kill that must lose
# nothing, a rebalance that may move only the dead replica's arc, and a
# canary upgrade gated on mirrored bit-identity.
fleet-smoke:
	$(GO) test ./internal/fleet/ ./cmd/emfleet/ ./cmd/emwatch/ -run .
	$(GO) test ./internal/snap/ -run Canary
	$(GO) run ./cmd/emfleet -smoke

# SLO/observability gate: burn-rate engine, flight recorder and emwatch
# unit tests, the serve/route SLO integration tests, then two end-to-end
# loadgen runs — a clean run under generous objectives that must stay OK
# for the whole run (-slo-assert), and an injected-cascade run under an
# impossible latency ceiling that must breach, trip the admission guard
# and dump flight evidence (-slo-expect-breach) which tracecheck -flight
# then validates.
slo-smoke:
	$(GO) test ./internal/slo/ ./internal/flight/ ./cmd/emwatch/ -run .
	$(GO) test ./internal/serve/ -run 'SLO|Flight'
	$(GO) test ./internal/route/ -run 'SLO|Flight'
	$(GO) run ./cmd/emserve -matcher stringsim -loadgen -duration 2s -qps 200 \
		-slo 'p99<=250ms@4s/1s,shed<=20%,error<=10%,cost<=$$10' -flight 1024 -slo-assert
	rm -rf /tmp/emserve-slo-smoke
	$(GO) run ./cmd/emserve -route stringsim,gpt-4 -route-inject -route-confidence 1 \
		-cache 0 -pairs-per-request 1 -loadgen -duration 6s \
		-slo 'p99<=5ms@4s/1s' -slo-shed 500 -flight 4096 \
		-flight-dump /tmp/emserve-slo-smoke -slo-expect-breach
	$(GO) run ./cmd/tracecheck -flight /tmp/emserve-slo-smoke/*.jsonl
	rm -rf /tmp/emserve-slo-smoke

# Resilient-routing gate: backend simulator, breaker/retry/router unit
# tests, the routed serving path, then an emroute sweep whose -smoke
# self-checks enforce the frontier's invariants (threshold-0 offline
# bit-identity, monotone clean cost, charged failures, injected retries).
route-smoke:
	$(GO) test ./internal/backend/ ./internal/route/ ./cmd/emroute/ -run .
	$(GO) test ./internal/serve/ -run 'Routed|ShedErrorsTyped'
	$(GO) run ./cmd/emroute -targets ABT -tiers stringsim,gpt-4 -max-pairs 400 -smoke

# End-to-end dedup gate: unit tests for the LSH index, corpus generator
# and pipeline, then an emdedup self-check run (-smoke exits non-zero if
# blocking recall, cluster F1 or the comparison advantage fall below their
# floors).
dedup-smoke:
	$(GO) test ./internal/blocking/lsh/ ./internal/dedup/ ./cmd/emdedup/ -run .
	$(GO) test ./internal/datasets/ -run Dedup
	$(GO) run ./cmd/emdedup -n 20000 -compare -compare-exact 20000 -smoke

# Snapshot-store gate: round-trip bit-identity for every registry
# configuration, codec/store/journal unit tests, then an end-to-end
# emsnap train + verify against a throwaway store.
snap-verify:
	$(GO) test ./internal/snap/... -run .
	$(GO) test ./internal/matchers/ -run 'TestSnapshot|TestConfigOf'
	$(GO) test ./internal/eval/ -run 'TestJournal|TestUnlabeled'
	rm -rf /tmp/emsnap-verify-store
	$(GO) run ./cmd/emsnap train -store /tmp/emsnap-verify-store -matcher stringsim
	$(GO) run ./cmd/emsnap train -store /tmp/emsnap-verify-store -matcher gpt-4
	$(GO) run ./cmd/emsnap verify -store /tmp/emsnap-verify-store
	rm -rf /tmp/emsnap-verify-store

# Determinism/concurrency gate for the parallel evaluation engine and the
# shared caches under it: vet the whole module, then race-test the engine
# (internal/eval), its scheduling substrate (internal/par), the shared
# serialization cache (internal/record), the text-profile cache and
# similarity kernels (internal/textsim), the language-model simulation's
# value/normalization caches (internal/lm), the study runner that
# dispatches on all of it (internal/core), and the online serving pipeline
# (internal/serve: micro-batching dispatcher, sharded LRU prediction
# cache, admission control), and the snapshot store's concurrent writers
# (internal/snap). Folds in the snap-verify gate so the checkpoint
# subsystem is exercised end to end on every verification run, the
# wire-alloc-gate so the zero-copy binary path cannot silently regress,
# and the dedup-smoke gate so the dataset-scale blocking pipeline keeps
# its recall/quality/comparison floors. The race list includes the LSH
# index and the dedup pipeline (concurrent build/probe workers), and the
# routing stack (internal/backend simulators, internal/route breakers and
# routers shared across serving workers); the route-smoke gate covers the
# cascade end to end. The slo-smoke gate covers the burn-rate engine and
# flight recorder end to end, and the race list includes both (the engine
# ticks on a background goroutine while request threads feed its sources;
# the flight ring is written lock-free from every worker). The
# fleet-smoke gate covers the sharded serving fleet end to end, and the
# race list includes internal/fleet (the front fans sub-batches out
# across goroutines against shared ring, breaker and canary state).
verify-parallel: vet snap-verify wire-alloc-gate dedup-smoke route-smoke slo-smoke fleet-smoke
	$(GO) test -race ./internal/obs/... ./internal/par/... ./internal/record/... ./internal/textsim/... ./internal/lm/... ./internal/eval/... ./internal/core/... ./internal/serve/... ./internal/snap/... ./internal/blocking/... ./internal/dedup/... ./internal/stream/... ./internal/backend/... ./internal/route/... ./internal/slo/... ./internal/flight/... ./internal/fleet/...

# Allocation gate for the serving hot path. Runs without -race (the race
# detector defeats sync.Pool, making allocs/op meaningless): first the
# AllocsPerRun regression tests — zero for the binary cache-hit, key-probe
# and protocol-error paths, a ceiling of 3 for an all-hit Submit and the
# measured ceiling for an all-hit wire request through the fleet front —
# then a short benchmark pass piped through benchjson -zero, which exits
# non-zero if the binary cache-hit path on stringsim reports any
# allocs/op.
wire-alloc-gate:
	$(GO) test ./internal/serve/ ./internal/fleet/ -run 'ZeroAlloc|AllocCeiling'
	$(GO) test -run '^$$' -bench 'WireCacheHit' -benchtime=0.2s -benchmem ./internal/serve \
		| $(GO) run ./cmd/benchjson -zero 'WireCacheHit' > /dev/null

# Smoke-test the serving binary: start emserve, hit /healthz and /match,
# assert a 200 on both (emserve -smoke exits non-zero otherwise).
serve-smoke:
	$(GO) run ./cmd/emserve -matcher stringsim -smoke

# Baseline-versus-served throughput/latency comparison behind the
# EXPERIMENTS.md serving table.
loadgen-report:
	$(GO) run ./cmd/emserve -matcher stringsim -loadgen -duration 5s
	$(GO) run ./cmd/emserve -matcher stringsim -loadgen -duration 5s -proto binary
	$(GO) run ./cmd/emserve -matcher gpt-4 -loadgen -duration 5s

vet:
	$(GO) vet ./...

# Trace pipeline gate: run a small traced LODO slice through emstudy,
# then validate the emitted JSONL with tracecheck (every line parses,
# span IDs are unique, children nest exactly inside their parents) and
# print the per-stage fold. Non-zero exit on any violation.
trace-demo:
	$(GO) run ./cmd/emstudy stages -trace /tmp/emstudy-trace.jsonl
	$(GO) run ./cmd/tracecheck -stages /tmp/emstudy-trace.jsonl
