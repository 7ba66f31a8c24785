#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it with the
# given arguments. Everything the build writes (binary, Go build cache,
# temporary files) stays under benchmark/out/, which benchmark/.gitignore
# keeps out of the tree.
set -euo pipefail
cd "$(dirname "$0")/.."
# Without the repository around it there is nothing to measure; never
# build against a go.mod found further up.
[ -f go.mod ] || { echo "run.sh: $PWD is not a checkout of the repository (no go.mod)" >&2; exit 1; }
build="$PWD/benchmark/out/build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
# No module outside this repository is needed; never reach for one.
export GOPROXY=off GOTOOLCHAIN=local
go build -o "$build/embench" ./benchmark
exec "$build/embench" "$@"
