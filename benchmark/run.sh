#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything the
# build and the run write (Go build cache, the binary, generated datasets,
# spill files) stays under .bench_build/ in the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/vxqbench" .)
exec "$build/vxqbench" "$@"
