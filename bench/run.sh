#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload torus-1024 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository.  Everything the build and the run
# write (Go build cache, binary, traces) stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
