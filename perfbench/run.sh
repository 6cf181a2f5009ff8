#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload train-step --seed 1 --seconds 30 --trace 0
#
# Every build output (compiler cache, binary, span dumps) stays under
# .bench_build/ in the current directory; no network access is needed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
# GOTMPDIR and XDG_CONFIG_HOME keep the go command's scratch files and
# telemetry counters in there too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
