#!/usr/bin/env bash
# Builds the study benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash studybench/run.sh --workload geometry-sweep --seed 1 --seconds 20 --trace 0
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
go -C "$root/studybench" build -o "$build/studybench" . >&2
exec "$build/studybench" --out "$build" "$@"
