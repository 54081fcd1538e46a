#!/usr/bin/env bash
# Run every workload in BENCHMARK.json with seeds 1..10 and its run_seconds,
# plus one traced run per workload (seed 1) that prints the per-layer
# self-time table, writing one raw record per run to perfbench/raw/; then
# summarize them with perfbench/reduce.py.  Earlier raw records are removed
# first.
#
#   bash perfbench/run_all.sh
set -euo pipefail
cd "$(dirname "$0")/.."

spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
seconds=$(spec 's["run_seconds"]')

rm -rf perfbench/raw
for workload in $(spec '" ".join(w["name"] for w in s["workloads"])'); do
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0 | tail -n 1
    done
    python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds "$seconds" --trace 1
done
python3 perfbench/reduce.py
