#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload ppm-small-16 --seed 1 --seconds 15 --trace 0
# Build outputs and the Go build cache stay under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
