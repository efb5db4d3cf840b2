#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the root of a checkout. Everything the go command writes (the
# build cache, its telemetry and the binary) goes under $CARGO_TARGET_DIR, default
# .bench_build, inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/perfbench"
export GOCACHE="$out/perfbench/gocache" GOMODCACHE="$out/perfbench/gomod" GOPATH="$out/perfbench/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOENV=off
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/perfbench/config"
export PERFBENCH_TRACE_DIR="$out/perfbench/traces"
go build -C "$root/perfbench" -o "$out/perfbench/perfbench" .
cd "$root"
exec "$out/perfbench/perfbench" "$@"
