#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the checkout root:
#
#   bash bench/run.sh --workload batch_warm --seed 1 --seconds 20 --trace 0
#
# bench/ is a Go module of its own that reaches the repository's internal
# packages through a replace directive, so it builds only inside a full
# checkout. Everything the toolchain and the run write (binary, build
# cache, telemetry, scratch stores) stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$build/titant-bench" .)
cd "$root"
exec "$build/titant-bench" "$@"
