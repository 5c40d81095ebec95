#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload:
#   bash perfbench/run.sh --workload solve-contended --seed 1 --seconds 30 --trace 0
# Build products, the Go build cache and traced runs' spans stay under
# .bench_build/ in the checkout; the module has no external dependencies, so
# the build never needs the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
  GOENV=off GOFLAGS= GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
