#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"): builds
# the benchmark from the checkout's sources into benchmark/out/.build, Go's
# build cache and temporary files included so that nothing is written
# outside the checkout, then runs it with the driver's arguments.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/benchmark/out/.build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
# VCS stamping fails the build where git distrusts the directory's owner;
# the commit, when there is one, is passed in explicitly instead.
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
