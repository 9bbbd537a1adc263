#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (named in .gitignore) and runs it from there, passing every
# argument through. Everything the Go toolchain writes — build cache,
# module cache, temporary files — stays inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -o "$build/ddnn-benchmark" .)
cd "$root"
exec "$build/ddnn-benchmark" "$@"
