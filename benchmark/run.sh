#!/usr/bin/env bash
# The driver's entry point, run from the root of a checkout:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the benchmark from source into .bench_build (Go's build cache
# and temporary files included, so nothing is written outside the
# checkout) and runs it with the arguments given.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/hmmbenchmark" .
exec "$build/hmmbenchmark" "$@"
