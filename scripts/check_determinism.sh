#!/usr/bin/env bash
# Runs the middleware suites and the bench grid twice — serial scans vs
# 4-way-parallel scans — and diffs the bench grid's thread-count-invariant
# outputs (trees, simulated cost, counters) to demonstrate the parallel-scan
# determinism contract end to end: the classifier and the simulated cost
# model must not be able to see the thread count; only wall time may differ.
#
# Usage: scripts/check_determinism.sh [BUILD_DIR [suites|bench]]
#   BUILD_DIR defaults to build. `suites` runs only the middleware suites,
#   `bench` only the bench grid diff; with neither, both run.

set -euo pipefail
BUILD_DIR=${1:-build}
PART=${2:-all}
case "$PART" in
  suites|bench|all) ;;
  *) echo "usage: $0 [BUILD_DIR [suites|bench]]" >&2; exit 2 ;;
esac
cd "$(dirname "$0")/.."

if [[ ! -x "$BUILD_DIR/tests/middleware_test" ]]; then
  echo "error: build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if [[ "$PART" != bench ]]; then
  for threads in 1 4; do
    echo "== middleware suite with SQLCLASS_PARALLEL_SCAN_THREADS=$threads =="
    for test_bin in middleware_test middleware_property_test \
                    parallel_scan_test bitmap_test shard_test; do
      SQLCLASS_PARALLEL_SCAN_THREADS=$threads \
        "$BUILD_DIR/tests/$test_bin" --gtest_brief=1
    done
  done
fi
[[ "$PART" == suites ]] && exit 0

# The bench grid — the paper's figures and the extension figures (bitmap,
# shard, approx and staged parallel grows): every cell's tree, simulated
# seconds, cost counters, middleware counts and path counters must not
# depend on the scan worker count; only fields ending in wall_s may differ.
# Within one run, bench_paper itself requires the shard grid (shard count x
# workers x transport x replicas) and the staged grows at 1-4 workers to
# agree on every such field.
for threads in 1 4; do
  echo "== bench grid with SQLCLASS_PARALLEL_SCAN_THREADS=$threads =="
  SQLCLASS_PARALLEL_SCAN_THREADS=$threads \
    "$BUILD_DIR/bench/bench_paper" --smoke \
    --dump="$tmp/paper_$threads.json" >/dev/null
  sed -E 's/"([a-z_]*wall_s)":[0-9.e+-]+/"\1":_/g' \
    "$tmp/paper_$threads.json" >"$tmp/paper_invariant_$threads.json"
done
diff "$tmp/paper_invariant_1.json" "$tmp/paper_invariant_4.json"
echo "OK: bench grid identical at 1 and 4 scan workers"
