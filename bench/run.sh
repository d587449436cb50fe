#!/usr/bin/env bash
# Builds the DR-BW benchmark from the checkout this script lives in and runs
# it with the given arguments, e.g.
#
#   bash bench/run.sh --workload detect --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. The Go build cache, the binary and every
# file the benchmark writes stay under .bench_build/ there, and the build
# never reaches the network. The script execs the benchmark, so no process
# outlives the run.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

go -C "$root/bench" build -o "$out/drbw-bench" .
exec "$out/drbw-bench" "$@"
