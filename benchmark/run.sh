#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays under .bench_build/ at the
# repository root: the binary, Go's build cache and its temporary files.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/ssync-benchmark" .
exec "$build/ssync-benchmark" "$@"
