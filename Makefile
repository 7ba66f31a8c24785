# Build/verify entry points for the reproduction study.

GO ?= go

.PHONY: build test vet bench alloc-gate smoke verify-parallel

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# go vet, then gofmt: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The repository's one performance suite (benchmark/README.md): the four
# BENCHMARK.json workloads, end-to-end metrics. `-trace 1` on one workload
# prints its per-layer budget instead.
bench:
	for w in replica-hit replica-miss fleet-hit lodo-offline; do \
		bash benchmark/run.sh -workload $$w -seed 1 || exit 1; done

# Allocation gate for the hot paths, as AllocsPerRun tests. Runs without
# -race (the race detector defeats sync.Pool, making allocs/op
# meaningless): zero for the binary cache-hit, key-probe and
# protocol-error paths of ServeWire, the hash ring (Owner, Successors,
# KeyHash), the all-cheap cascade route, the flight-ring write, the nil
# SLO engine, the Ratcliff/Obershelp ratio and threshold test on a held
# scratch, the q-gram Jaccard kernel on warm profiles, the symmetric
# Monge-Elkan kernel, the lm knowledge draw, a warm pair through the
# encoder's EncodeInto with a held vector (TestEncodeIntoAllocCeiling) and
# a 64-pair StringSim batch;
# a ceiling of 3 for an all-hit Submit, one allocation per value plus a
# small constant for an all-hit JSON request through the replica handler
# (TestMatchJSONHitAllocCeiling) and the measured ceiling for an all-hit
# wire request through the fleet front.
alloc-gate:
	$(GO) test ./internal/serve/ ./internal/fleet/ ./internal/route/ ./internal/slo/ ./internal/flight/ \
		./internal/textsim/ ./internal/lm/ ./internal/matchers/ -run 'ZeroAlloc|AllocCeiling'

# End-to-end gate of every binary, in stages that share one throwaway
# directory. Each stage's command exits non-zero on a violated assertion
# and stops the gate.
#   snap     emtool snap train primes the store (stringsim, gpt-4)
#   serve    emserve warm-starts from it; /healthz, JSON and wire /match
#   slo      a clean loadgen run (warm-started too) that must stay OK,
#            then an injected-cascade run under an impossible latency
#            ceiling that must breach, trip the admission guard and dump
#            flight evidence, which emtool trace -flight validates
#   route    emroute sweep self-checks: threshold-0 offline bit-identity,
#            monotone clean cost, charged failures, injected retries
#   fleet    emserve -replicas 3 on its own empty store (its first phase
#            asserts cold-then-warm): bit-identity against one replica,
#            load balance, replica caches hit, mid-run kill with no
#            request lost
#   verify   emtool snap verify over everything the stages stored
#   trace    a traced LODO slice through emstudy, validated and folded per
#            stage by emtool trace
#   bench    benchmark/run.sh -quick on each of the four BENCHMARK.json
#            workloads: it must build, exit 0 and print "correct":true
#   fuzz     5 s per wire/serve/snap/textsim fuzz target; a failing input lands
#            in the package's testdata/fuzz/ and fails the stage
smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; store=$$tmp/store; set -x; \
	$(GO) run ./cmd/emtool snap train -store $$store -matcher stringsim; \
	$(GO) run ./cmd/emtool snap train -store $$store -matcher gpt-4; \
	$(GO) run ./cmd/emserve -matcher stringsim -store $$store -smoke; \
	$(GO) run ./cmd/emserve -matcher stringsim -store $$store -loadgen -duration 2s -qps 200 \
		-slo 'p99<=250ms@4s/1s,shed<=20%,error<=10%,cost<=$$10' -flight 1024 -slo-assert; \
	$(GO) run ./cmd/emserve -route stringsim,gpt-4 -route-inject -route-confidence 1 \
		-cache 0 -pairs-per-request 1 -loadgen -duration 6s \
		-slo 'p99<=5ms@4s/1s' -slo-shed 500 -flight 4096 \
		-flight-dump $$tmp/flight -slo-expect-breach; \
	$(GO) run ./cmd/emtool trace -flight $$tmp/flight/*.jsonl; \
	$(GO) run ./cmd/emroute -targets ABT -tiers stringsim,gpt-4 -max-pairs 400 -smoke; \
	$(GO) run ./cmd/emserve -smoke -replicas 3; \
	$(GO) run ./cmd/emtool snap verify -store $$store; \
	$(GO) run ./cmd/emstudy stages -trace $$tmp/trace.jsonl; \
	$(GO) run ./cmd/emtool trace -stages $$tmp/trace.jsonl; \
	for w in replica-hit replica-miss fleet-hit lodo-offline; do \
		bash benchmark/run.sh -workload $$w -quick > $$tmp/bench.out; cat $$tmp/bench.out; \
		grep -q '"correct":true' $$tmp/bench.out || { echo "bench $$w: not correct"; exit 1; }; done; \
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzRequestDecode$$' -fuzztime=5s; \
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzDecodeMatchRequest$$' -fuzztime=5s; \
	$(GO) test ./internal/wire -run '^$$' -fuzz '^FuzzResponseDecode$$' -fuzztime=5s; \
	$(GO) test ./internal/snap -run '^$$' -fuzz '^FuzzFrameReader$$' -fuzztime=5s; \
	$(GO) test ./internal/snap -run '^$$' -fuzz '^FuzzDec$$' -fuzztime=5s; \
	$(GO) test ./internal/textsim -run '^$$' -fuzz '^FuzzRatcliffEquivalence$$' -fuzztime=5s; \
	$(GO) test ./internal/textsim -run '^$$' -fuzz '^FuzzTrigramSet$$' -fuzztime=5s; \
	$(GO) test ./internal/textsim -run '^$$' -fuzz '^FuzzMongeElkanSym$$' -fuzztime=5s

# Determinism/concurrency gate: vet, the allocation gate, the smoke gate,
# then the race detector over the root package and every internal/ and
# cmd/ package.
verify-parallel: vet alloc-gate smoke
	$(GO) test -race . ./internal/... ./cmd/...
