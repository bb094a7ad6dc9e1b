#!/bin/sh
# Run every workload named in BENCHMARK.json once, each in its own process,
# and print its metrics with units and sample counts. From the repository root:
#   sh perfbench/all.sh [--seed N] [--seconds S] [--trace 0|1]
set -e
workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for workload in $workloads; do
    python3 perfbench/run.py --workload "$workload" "$@"
done
