#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# BENCHMARK.json names this script as the benchmark's command; every
# argument is passed through (see main.go for the flags).
#
# Everything the build writes stays under .bench_build/ in the checkout:
# the Go build cache, the (empty) module cache and the binary. The first
# build in a fresh checkout compiles the standard library too.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $PWD is not an lsmlab checkout (no go.mod or internal/): nothing to build" >&2
	exit 3
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/lsmlab-benchmark" ./benchmark
exec "$build/lsmlab-benchmark" "$@"
