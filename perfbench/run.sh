#!/usr/bin/env bash
# Builds perfbench from source and runs it; every argument is passed on.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload exec --seed 1 --seconds 25 --trace 0
#
# The Go build cache, the binary and the traced runs' spans all live
# under .bench_build in the current directory, so nothing is written
# outside it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
(
	cd "$root/perfbench"
	HOME="$out/home" GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=mod \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
