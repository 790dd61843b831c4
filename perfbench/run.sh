#!/usr/bin/env bash
# Builds ssdcheckd and the benchmark from this checkout, then runs one
# workload:
#
#   bash perfbench/run.sh --workload daemon-batch --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes
# stays under .bench_build/ in the checkout, the Go build cache
# included.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOENV=off GOWORK=off

go build -o "$build/ssdcheckd" ./cmd/ssdcheckd
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
