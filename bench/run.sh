#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from the
# repository root:
#
#   bash bench/run.sh --workload fleet-short --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, and the build's temporary files all live
# under .bench_build/ in the working directory, so a run writes nothing
# outside it. The first run compiles the standard library into that cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
