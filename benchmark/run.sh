#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the arguments
# given: BENCHMARK.json's command. Everything the build writes (the Go build
# cache included) stays under .bench_build/ in the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's cache, scratch space, module path and telemetry counters
# all default to places outside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
