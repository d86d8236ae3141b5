#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything go writes (build cache, binary, data dirs) stays under
# bench/out/, so a run reads and writes only inside the checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/build/tmp
export GOCACHE="$PWD/out/build/gocache"
export GOPATH="$PWD/out/build/gopath"
export GOTMPDIR="$PWD/out/build/tmp"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o out/build/bench . >&2
exec out/build/bench "$@"
