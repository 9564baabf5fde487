#!/usr/bin/env bash
# Builds the campaign benchmark from this checkout and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload uarch-paper --seed 42 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artefact (the Go build
# cache included) stays under .bench_build/ in the current directory. The
# build never fetches anything: the benchmark and the simulator use the
# standard library only.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off

(cd bench && go build -o "$out/restore-bench" .)
exec "$out/restore-bench" "$@"
