#!/usr/bin/env bash
# Runs every workload (or the ones named) over seeds 1..N with tracing
# off, and once more traced at seed 1, writing result files to a
# directory. Run from the repository root:
#   bash perfbench/sweep.sh <results-dir> <N> [workload...]
# Compare two such directories with
#   bash perfbench/run.sh compare <parent-dir> <change-dir>
set -euo pipefail
out=$1 n=$2
shift 2
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ $# -eq 0 ]; then
  set -- $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi
for w in "$@"; do
  for s in $(seq 1 "$n"); do
    bash perfbench/run.sh --workload "$w" --seed "$s" --seconds "$secs" --trace 0 --out "$out" | tail -1
  done
  bash perfbench/run.sh --workload "$w" --seed 1 --seconds "$secs" --trace 1 --out "$out" | tail -1 | cut -c1-200
done
