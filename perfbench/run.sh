#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload slab --seed 1 --seconds 20 --trace 0
#
# Run from the root of a checkout. Build outputs, the Go build cache,
# generated inputs and span dumps all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache, its
# telemetry counters under the config directory) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
