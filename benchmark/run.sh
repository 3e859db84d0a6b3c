#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root. Everything the
# Go toolchain and the benchmark write stays under .bench_build in the
# checkout: build cache, temp files, the two binaries, state directories.
set -euo pipefail
cd "$(dirname "$0")/.."
work="$PWD/.bench_build"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" TMPDIR="$work/tmp"
export GOPATH="$work/gopath" GOTOOLCHAIN=local GOENV=off GOTELEMETRY=off
go build -C benchmark -o "$work/benchmark" .
exec "$work/benchmark" "$@"
