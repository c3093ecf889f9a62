#!/usr/bin/env bash
# The command BENCHMARK.json names. Run from the root of a checkout:
#
#   bash bench/run.sh --workload seq-3k --seed 1 --seconds 10 --trace 0
#
# It builds the benchmark from the checkout's own sources and runs it.
# Everything the build leaves behind — the binary, the Go build cache,
# the toolchain's temporary and configuration files — stays inside
# .bench_build in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of a checkout (no go.mod or internal/ here)" >&2
	exit 1
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
