#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json):
#
#   bash benchmark/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Builds benchmark/dirload from this checkout and runs it with the given
# arguments; dirload builds cmd/dirserve itself. Everything the builds
# and the run write stays under .bench_build/ and benchmark/out/ in the
# checkout: the Go build cache and temp files are pointed there too.
# Run it from the repository root. In a directory without the module
# (no go.mod, no cmd/dirserve) the build fails and so does this script.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/bin/dirload" ./benchmark/dirload
exec "$build/bin/dirload" -workdir "$build" "$@"
