#!/usr/bin/env bash
# Run one workload N times, with seeds 1..N, and summarise the spread of
# every metric against its bound in BENCHMARK.json (benchmark/stats.py).
#
#   bash benchmark/repeat.sh <workload> <N> [sets] [trace]
#
# sets (default 1) repeats the N seeds that many times, so set 2 can be
# checked against set 1: time medians within their bounds, quality_x
# bitwise equal per seed. trace (0 or 1, default 0) selects end-to-end
# or per-layer metrics. Captures land in .bench_build/repeat/.
set -euo pipefail

if (($# < 2)); then
    sed -n '2,10p' "$0" >&2
    exit 2
fi
workload=$1 runs=$2 sets=${3:-1} trace=${4:-0}
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
out=.bench_build/repeat/$workload-trace$trace
rm -rf "$out"
mkdir -p "$out"

for ((set = 1; set <= sets; ++set)); do
    for ((seed = 1; seed <= runs; ++seed)); do
        start=$(date +%s%N)
        status=0
        bash benchmark/run.sh --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace" \
            >"$out/set$set-seed$seed.txt" 2>"$out/set$set-seed$seed.err" ||
            status=$?
        echo "$workload set $set seed $seed: exit $status," \
            "$((($(date +%s%N) - start) / 1000000)) ms"
    done
done
python3 benchmark/stats.py BENCHMARK.json "$out"
