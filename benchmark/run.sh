#!/usr/bin/env bash
# Builds the harness from source (once per checkout; later calls find the
# binary up to date) and runs it from the root of the checkout. Build
# cache, temporary files and the binary all stay inside the checkout,
# under .bench_build.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o "$build/dpn-benchmark" . >&2
exec "$build/dpn-benchmark" "$@"
