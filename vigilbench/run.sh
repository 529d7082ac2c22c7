#!/usr/bin/env bash
# Builds the vigil end-to-end benchmark from source and runs it. Run it
# from the repository root:
#
#   bash vigilbench/run.sh --workload paper-steady --seed 1 --seconds 10 --trace 0
#   bash vigilbench/run.sh --workload all
#
# Build outputs, the Go build cache, checkpoints and span files all stay
# under .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOFLAGS=
go build -C vigilbench -o "$out/vigilbench" .
exec "$out/vigilbench" --workdir "$out" "$@"
