#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload bulk-3p --seed 7 --seconds 12 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files and the binary all stay under .bench_build/ at that root.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" TMPDIR="$build/tmp" GOTMPDIR="$build/tmp" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOTELEMETRY=off
go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
