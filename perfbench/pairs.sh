#!/usr/bin/env bash
# Runs the benchmark in alternating pairs on two checkouts — the parent
# commit and a change — and compares the two sets with perfcmp:
#
#   bash perfbench/pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [FIRST_SEED]
#
# Pair i runs both sides on seed FIRST_SEED+i, and the side that runs
# first alternates from pair to pair. Both sides use the run length in
# the change's BENCHMARK.json. Results go to
# CHANGE_DIR/.bench_build/pairs-WORKLOAD-{parent,change}.jsonl.
set -euo pipefail

parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-10}
first=${5:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$change/BENCHMARK.json")
out=$change/.bench_build
mkdir -p "$out"
a=$out/pairs-$workload-parent.jsonl
b=$out/pairs-$workload-change.jsonl
: >"$a"
: >"$b"

one() { # dir file seed
	(cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0) | tail -n 1 >>"$2"
}
for ((i = 0; i < pairs; i++)); do
	seed=$((first + i))
	if ((i % 2 == 0)); then
		one "$parent" "$a" "$seed"
		one "$change" "$b" "$seed"
	else
		one "$change" "$b" "$seed"
		one "$parent" "$a" "$seed"
	fi
done
cd "$change/perfbench"
go run ./perfcmp -benchmark "$change/BENCHMARK.json" "$a" "$b"
