#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload fig7_l2bm --seed 1 --seconds 20 --trace 0
# Everything it writes (Go build cache, binary, scratch files) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=readonly
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -dir "$build" "$@"
