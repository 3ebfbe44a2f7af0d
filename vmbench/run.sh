#!/usr/bin/env bash
# Builds cmd/vmd and the benchmark from source into .bench_build, then
# runs the benchmark. Run from the repository root:
#
#   bash vmbench/run.sh --workload tiny-rpc --seed 1 --seconds 10 --trace 0
#
# Every build and cache file stays under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go build -o "$out/vmd" ./cmd/vmd
(cd vmbench && go build -o "$out/vmbench" .)
exec "$out/vmbench" -vmd "$out/vmd" -work "$out/work" "$@"
