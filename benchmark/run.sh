#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Run from the repository root: bash benchmark/run.sh ...
# Everything the Go toolchain writes stays under .bench_build/.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
go build -C benchmark -o "$build/hamband-benchmark" .
exec "$build/hamband-benchmark" "$@"
