#!/usr/bin/env bash
# Measures a parent tree against a change tree in alternating pairs: for
# each workload and seed 1..N it runs both, the parent first on odd seeds
# and the change first on even ones, so slow drift of the host hits both
# sides alike. Then it compares them. Each tree runs its own perfbench,
# which must be the same benchmark code. Run from either tree's root:
#   bash perfbench/pairs.sh <parent-tree> <change-tree> <results-dir> <N> [workload...]
set -euo pipefail
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd) out=$3 n=$4
shift 4
mkdir -p "$out"
out=$(cd "$out" && pwd)
spec="$change/BENCHMARK.json"
secs=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$spec")
if [ $# -eq 0 ]; then
  set -- $(python3 -c 'import json,sys; print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$spec")
fi
run() { (cd "$1" && bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace 0 --out "$4" | tail -1 | cut -c1-120); }
for w in "$@"; do
  for s in $(seq 1 "$n"); do
    if [ $((s % 2)) -eq 1 ]; then
      run "$parent" "$w" "$s" "$out/parent"; run "$change" "$w" "$s" "$out/change"
    else
      run "$change" "$w" "$s" "$out/change"; run "$parent" "$w" "$s" "$out/parent"
    fi
  done
done
cd "$change" && bash perfbench/run.sh compare "$out/parent" "$out/change"
