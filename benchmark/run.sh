#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source and
# runs it, passing its arguments on. Everything it or the benchmark writes —
# the Go build cache, the toolchain's telemetry counters (XDG_CONFIG_HOME) and
# temporary files included — lands in .bench_build at the root of the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME=$build/config
go build -C benchmark -o "$build/bin/remi-benchmark" .
exec "$build/bin/remi-benchmark" "$@"
