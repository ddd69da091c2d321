#!/bin/sh
# cache_smoke.sh: end-to-end smoke test of the persistent artifact
# store across real process boundaries — the contract CI pins
# (DESIGN.md §13).
#
#   1. build cisim and record a storeless baseline of
#      `run -quick -json all`
#   2. launch TWO cisim processes concurrently against one cold
#      -cache-dir; both must exit 0 (no deadlock on the shared locks)
#      and print baseline-identical JSON
#   3. run a third, warm process over the same directory with span
#      tracing on (-spans): JSON still byte-identical — tracing is a
#      side channel — and the run must finish in under a quarter of
#      the storeless baseline's wall time (the whole point of the store:
#      detailed results and fig3's ideal grids both come from disk)
#   4. `cisim cache verify` must find nothing to quarantine, and
#      `cisim cache stats -json` (one flat object, asserted on below:
#      one ideal grid per workload, so "entries_ideal": 5) is left as
#      the CI artifact with the warm run's span trace
#
# Run via `make cache-smoke`. Requires only the go toolchain.
set -eu

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM
cache="$workdir/store"

now_ms() { date +%s%3N; }

echo "cache-smoke: building cisim"
go build -o "$workdir/cisim" ./cmd/cisim

echo "cache-smoke: storeless baseline run -quick -json all"
t0=$(now_ms)
"$workdir/cisim" run -quick -json all >"$workdir/baseline.json" 2>/dev/null
base_ms=$(($(now_ms) - t0))
echo "cache-smoke: baseline took ${base_ms}ms"

echo "cache-smoke: two concurrent cold processes sharing $cache"
"$workdir/cisim" run -quick -json -cache-dir "$cache" all \
    >"$workdir/a.json" 2>/dev/null &
pid_a=$!
"$workdir/cisim" run -quick -json -cache-dir "$cache" all \
    >"$workdir/b.json" 2>/dev/null &
pid_b=$!
fail=0
wait "$pid_a" || fail=1
wait "$pid_b" || fail=1
if [ "$fail" -ne 0 ]; then
    echo "cache-smoke: a concurrent store-backed run exited non-zero" >&2
    exit 1
fi
for f in a.json b.json; do
    if ! cmp -s "$workdir/baseline.json" "$workdir/$f"; then
        echo "cache-smoke: concurrent run $f differs from the baseline" >&2
        diff "$workdir/baseline.json" "$workdir/$f" >&2 || true
        exit 1
    fi
done

echo "cache-smoke: warm run from a fresh process (span tracing on)"
mkdir -p artifacts
t0=$(now_ms)
"$workdir/cisim" run -quick -json -cache-dir "$cache" \
    -spans artifacts/warm_run_spans.jsonl all \
    >"$workdir/warm.json" 2>/dev/null
warm_ms=$(($(now_ms) - t0))
echo "cache-smoke: warm run took ${warm_ms}ms (baseline ${base_ms}ms)"
if ! cmp -s "$workdir/baseline.json" "$workdir/warm.json"; then
    echo "cache-smoke: warm traced run differs from the baseline" >&2
    diff "$workdir/baseline.json" "$workdir/warm.json" >&2 || true
    exit 1
fi
if ! grep -q '"name":"store:get"' artifacts/warm_run_spans.jsonl; then
    echo "cache-smoke: warm run's span trace shows no store reads" >&2
    exit 1
fi
if [ $((warm_ms * 4)) -ge "$base_ms" ]; then
    echo "cache-smoke: warm run (${warm_ms}ms) not under a quarter of the baseline (${base_ms}ms)" >&2
    exit 1
fi

echo "cache-smoke: verifying store integrity"
"$workdir/cisim" cache verify -cache-dir "$cache"

"$workdir/cisim" cache stats -cache-dir "$cache" -json \
    | tee artifacts/cache_stats.json

echo "cache-smoke: asserting on the flat stats object"
for field in entries bytes lifetime_puts session_hits session_misses; do
    if ! grep -q "\"$field\":" artifacts/cache_stats.json; then
        echo "cache-smoke: cache stats -json lacks the \"$field\" field" >&2
        exit 1
    fi
done
entries=$(sed -n 's/^ *"entries": \([0-9][0-9]*\).*/\1/p' artifacts/cache_stats.json)
if [ -z "$entries" ] || [ "$entries" -eq 0 ]; then
    echo "cache-smoke: store reports no entries after three runs" >&2
    exit 1
fi
if ! grep -q '"entries_ideal": 5,\{0,1\}$' artifacts/cache_stats.json; then
    echo "cache-smoke: store does not hold one ideal grid per workload (\"entries_ideal\": 5)" >&2
    exit 1
fi

echo "cache-smoke: OK (concurrent + warm runs byte-identical; warm ${warm_ms}ms vs baseline ${base_ms}ms; $entries entries)"
