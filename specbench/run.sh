#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from
# and runs it with the given arguments:
#
#   bash specbench/run.sh --workload globe-prem --seed 1 --seconds 35 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binary, run records, traces) goes under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C "$root/specbench" build -o "$out/specbench" .
exec "$out/specbench" --out "$out" "$@"
