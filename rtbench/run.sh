#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, e.g.:
#
#   bash rtbench/run.sh --workload stream --seed 1 --seconds 26 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory. The toolchain is pinned to the local one, with no
# module downloads, and GOAMD64=v1 so the compiler never fuses a*b+c (the
# oracle comparison is bit for bit).
set -euo pipefail
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
  GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOAMD64=v1
mkdir -p "$GOTMPDIR"
go -C rtbench build -o "$build/rtbench.bin" .
exec "$build/rtbench.bin" "$@"
