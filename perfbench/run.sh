#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-curve --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, temporary files, result stores, journals
# and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

# perfbench is its own module that imports the repository's packages
# through a replace directive, so it builds only inside a full checkout.
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
