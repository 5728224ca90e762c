#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark and aqld from
# the checkout's source into .bench_build (the first run of a checkout pays
# for that; later runs find the build cache warm) and runs one workload,
# passing its arguments through:
#
#   bash benchmarks/run.sh --workload plan_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go build -o "$out/benchmarks" ./benchmarks
go build -o "$out/aqld" ./cmd/aqld
exec "$out/benchmarks" -aqld "$out/aqld" -workdir "$out" "$@"
