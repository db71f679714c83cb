#!/usr/bin/env bash
# Runs each workload once per seed, seeds in the outer loop, and appends
# every run's result line to <out-dir>/<workload>.jsonl: a result set for
# `bash fexbench/run.sh compare`. Run from the repository root:
#
#   bash fexbench/sweep.sh <out-dir> <seconds> <trace 0|1> <workload,...> <seed>...
set -euo pipefail
out=$1 seconds=$2 trace=$3 workloads=$4
shift 4
mkdir -p "$out"
for seed in "$@"; do
	for w in ${workloads//,/ }; do
		bash fexbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
			2>>"$out/$w.log" | tail -n 1 >>"$out/$w.jsonl"
	done
done
