#!/bin/sh
# benchjson.sh — run the repo benchmarks and record the results as a
# BENCH_<date>.json artifact, so the performance trajectory of the
# reproduction is tracked over time.
#
# Usage: scripts/benchjson.sh [bench-regex] [output-file]
#
#   bench-regex   which benchmarks to run (go test -bench syntax).
#                 Defaults to the fast microbenchmarks; pass '.' for
#                 everything (the Table/Figure/Ablation benchmarks run
#                 full experiments and take minutes each).
#   output-file   defaults to BENCH_<YYYYMMDD>.json in the repo root
#                 (BENCH_<YYYYMMDD>.N.json if that already exists).
#
# Environment: BENCHTIME overrides -benchtime for every run. By default
# the sub-second microbenchmarks (merge, characterize, codecs) run at
# -benchtime=100x so per-iteration noise averages out, while the
# multi-second whole-experiment benchmarks (E1Sharded) stay at 1x.
set -eu

cd "$(dirname "$0")/.."

# Benchmarks of unvetted code measure the wrong thing: refuse to run
# unless go vet and the repo's own essvet analyzers pass.
echo "gating on go vet + essvet" >&2
go vet ./... || { echo "benchjson.sh: go vet failed, not benching" >&2; exit 1; }
go run ./cmd/essvet ./... || { echo "benchjson.sh: essvet failed, not benching" >&2; exit 1; }

micro='DiskService|ElevatorSubmit|TraceMarshal|EngineEvents|EngineStep|MergeBatch|MergeStreaming|MergeHeap|MergeLoserTree|CharacterizeParallel|CharacterizeStreaming|CharacterizeColumnar|CharacterizeObs|CharacterizeTrace|ColWrite|ColRead|ColMmap|BufferCacheHit|BufferCacheEvictDirty|BootNode|EthernetTransfer|PVMBarrier16|WaveletTransform512'
# The data-parallel app kernels run at 1 and 2 CPUs, so the artifact holds
# their serial and parallel times side by side.
kernels='PPMStep240x480|NBodyStep8K'
slow='E1Sharded'
pattern=${1:-"$micro|$kernels|$slow"}
out=${2:-}
if [ -z "$out" ]; then
    # Never clobber an earlier artifact from the same day: each run's
    # numbers are a point on the performance trajectory.
    out=BENCH_$(date +%Y%m%d).json
    i=2
    while [ -e "$out" ]; do
        out=BENCH_$(date +%Y%m%d).$i.json
        i=$((i + 1))
    done
fi
micro_benchtime=${BENCHTIME:-100x}
slow_benchtime=${BENCHTIME:-1x}

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

benchtime="micro=$micro_benchtime slow=$slow_benchtime"
if [ $# -ge 1 ]; then
    # Explicit pattern: one run, one benchtime (default 100x).
    benchtime=$micro_benchtime
    go test -run '^$' -bench "$pattern" -benchtime "$benchtime" . ./internal/trace | tee "$raw" >&2
else
    # Default sweep: microbenchmarks at 100x for stable numbers, the app
    # kernels at 1 and 2 CPUs, then the multi-second experiment
    # benchmarks at 1x; awk folds the outputs into one artifact.
    go test -run '^$' -bench "$micro" -benchtime "$micro_benchtime" . ./internal/trace | tee "$raw" >&2
    go test -run '^$' -bench "$kernels" -cpu 1,2 -benchtime "$micro_benchtime" . | tee -a "$raw" >&2
    go test -run '^$' -bench "$slow" -benchtime "$slow_benchtime" . | tee -a "$raw" >&2
fi

awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
    -v gover="$(go env GOVERSION)" \
    -v pattern="$pattern" \
    -v benchtime="$benchtime" '
function esc(s) { gsub(/\\/, "\\\\", s); gsub(/"/, "\\\"", s); return s }
BEGIN {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", esc(date)
    printf "  \"go\": \"%s\",\n", esc(gover)
    printf "  \"pattern\": \"%s\",\n", esc(pattern)
    printf "  \"benchtime\": \"%s\",\n", esc(benchtime)
    printf "  \"benchmarks\": ["
    n = 0
}
/^Benchmark/ && NF >= 4 {
    name = $1
    sub(/^Benchmark/, "", name)
    # go test appends -N to a name run at GOMAXPROCS N > 1.
    procs = 1
    if (match(name, /-[0-9]+$/)) {
        procs = substr(name, RSTART + 1)
        name = substr(name, 1, RSTART - 1)
    }
    if (n++) printf ","
    printf "\n    {\"name\": \"%s\", \"procs\": %s, \"iterations\": %s, \"metrics\": {", esc(name), procs, $2
    m = 0
    for (i = 3; i + 1 <= NF; i += 2) {
        if (m++) printf ", "
        printf "\"%s\": %s", esc($(i + 1)), $i
    }
    printf "}}"
}
END {
    printf "\n  ]\n}\n"
}' "$raw" > "$out"

echo "wrote $out" >&2
