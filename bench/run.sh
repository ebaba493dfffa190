#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. Arguments pass through, e.g.
#
#   bash bench/run.sh --workload dnn-fleet --seed 1 --seconds 10 --trace 0
#
# The Go build cache and the binary live in .bench_build/ at the root, so
# the benchmark writes nothing outside the checkout, and the toolchain never
# reaches for the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/bench" build -o "$out/paella-bench" .
exec "$out/paella-bench" "$@"
