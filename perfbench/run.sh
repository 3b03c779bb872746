#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in and
# executes it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload engine_runs --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache and the temporary files of
# the benchmark stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C perfbench build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" "$@"
