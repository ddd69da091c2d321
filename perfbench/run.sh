#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and the benchmark's scratch files all
# stay under $CARGO_TARGET_DIR (default .bench_build) in the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOPROXY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
