#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash pcrperf/run.sh --workload remote-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, fixtures, span logs) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off

(cd "$root/pcrperf" && go build -o "$out/pcrperf-bin" .)
exec "$out/pcrperf-bin" "$@"
