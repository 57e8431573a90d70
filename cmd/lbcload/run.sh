#!/usr/bin/env bash
# Builds lbcload from source inside the checkout and runs it with the
# arguments given. Run it from the repository root:
#
#   bash cmd/lbcload/run.sh --workload private --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build and module caches) stays
# under .bench_build/ in the checkout, whatever HOME is.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C cmd/lbcload -o "$out/lbcload" .
exec "$out/lbcload" "$@"
