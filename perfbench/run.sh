#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository; every argument is passed on:
#
#   bash perfbench/run.sh --workload warm_predict_gw --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, the go command's telemetry counters
# and the traced run's Chrome traces all go under .bench_build/ in the
# current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
XDG_CONFIG_HOME="$build/config" go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
