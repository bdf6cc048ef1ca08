#!/usr/bin/env bash
# Runs workloads of the Surfer benchmark several times and prints, per
# metric, the median, the quartiles, the spread (q3 - q1 over the median)
# and the max/min ratio. Use it to set and check the bounds in
# BENCHMARK.json: a metric's spread should stay under a third of its bound.
#
#   surfer_bench/stability.sh [-n runs] [-s seed] [-t seconds] [-v] [-x]
#                             [workload ...]
#
#   -n  runs per workload (default 5)
#   -s  seed (default 1)
#   -t  measured seconds per run (default: BENCHMARK.json's run_seconds)
#   -v  vary the seed: run i uses seed + i, as a gate comparing commits does
#   -x  traced runs (--trace 1): report the per-layer metrics instead
#
# Quartiles follow Python's statistics.quantiles(values, n=4). Run from the
# root of a checkout; raw result lines go to .bench_build/stability/.
set -euo pipefail

runs=5
seed=1
seconds=""
vary=0
trace=0
while getopts "n:s:t:vx" opt; do
  case "$opt" in
    n) runs="$OPTARG" ;;
    s) seed="$OPTARG" ;;
    t) seconds="$OPTARG" ;;
    v) vary=1 ;;
    x) trace=1 ;;
    *) sed -n '2,20p' "$0" >&2; exit 2 ;;
  esac
done
shift $((OPTIND - 1))
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(batch-o4 batch-o1 batch-dist serve-hot serve-cold)
fi
if [ -z "$seconds" ]; then
  seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi

out_dir=.bench_build/stability
mkdir -p "$out_dir"
for workload in "${workloads[@]}"; do
  results="$out_dir/$workload.jsonl"
  : > "$results"
  for ((i = 0; i < runs; i++)); do
    run_seed=$seed
    if [ "$vary" -eq 1 ]; then
      run_seed=$((seed + i))
    fi
    python3 surfer_bench/run.py --workload "$workload" --seed "$run_seed" \
      --seconds "$seconds" --trace "$trace" | tail -n 1 >> "$results"
  done
  python3 - "$workload" "$results" <<'EOF'
import json
import statistics
import sys

workload, path = sys.argv[1], sys.argv[2]
results = [json.loads(line) for line in open(path)]
print(f"== {workload}: {len(results)} runs, "
      f"{sum(r['failed'] for r in results)} failed of "
      f"{sum(r['attempted'] for r in results)} attempted, "
      f"all correct: {all(r['correct'] for r in results)}")
print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
      f"{'spread':>8s} {'max/min':>8s}")
for name, first in results[0]["metrics"].items():
    values = [r["metrics"][name]["value"] for r in results]
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else 0.0
    ratio = max(values) / min(values) if min(values) > 0 else float("nan")
    print(f"{name:34s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
          f"{spread:8.2%} {ratio:8.3f}  {first['unit']}")
EOF
done
