#!/usr/bin/env bash
# Builds perfbench from source and runs it; the arguments pass through.
# Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload replay --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and the benchmark's temporary files stay
# under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" "$@"
