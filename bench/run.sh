#!/bin/bash
# Builds the ledger from source inside the checkout and runs it.
# Everything Go writes while building (build cache, module cache, work
# directories, the go command's own telemetry counters) is pointed into
# .bench_build so nothing outside the checkout is touched; the program
# itself writes only under bench/out.
set -eu
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -o "$build/ledger" .
exec "$build/ledger" "$@"
