#!/usr/bin/env bash
# Runs the middleware suite twice — serial scans vs 4-way-parallel scans —
# and diffs the thread-count-invariant outputs (CC identity checks and
# simulated cost) to demonstrate the parallel-scan determinism contract end
# to end: the classifier and the simulated cost model must not be able to
# see the thread count; only wall time may differ.
#
# Usage: scripts/check_determinism.sh [BUILD_DIR]   (default: build)

set -euo pipefail
BUILD_DIR=${1:-build}
cd "$(dirname "$0")/.."

if [[ ! -x "$BUILD_DIR/tests/middleware_test" ]]; then
  echo "error: build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for threads in 1 4; do
  echo "== middleware suite with SQLCLASS_PARALLEL_SCAN_THREADS=$threads =="
  for test_bin in middleware_test middleware_property_test parallel_scan_test \
                  bitmap_test shard_test; do
    SQLCLASS_PARALLEL_SCAN_THREADS=$threads \
      "$BUILD_DIR/tests/$test_bin" --gtest_brief=1
  done
  SQLCLASS_PARALLEL_SCAN_THREADS=$threads \
    "$BUILD_DIR/bench/bench_parallel_scan" --smoke \
    --dump="$tmp/dump_$threads.json" >/dev/null
  # Wall-clock fields legitimately differ run to run; everything else — the
  # CC-identity verdicts and the simulated seconds — must not.
  sed -E 's/"(wall_seconds|speedup_vs_serial)":[0-9.]+/"\1":_/g' \
    "$tmp/dump_$threads.json" >"$tmp/invariant_$threads.json"
done

diff "$tmp/invariant_1.json" "$tmp/invariant_4.json"
echo "OK: CC tables and simulated cost identical across thread counts"

# The bench's staged, bounded grow (a table above the parallel-scan row
# floor, staging on, CC memory tight enough to evict mid-scan) took its
# worker count from the environment: its tree, cost counters and eviction
# counts must not have moved between the 1- and the 4-worker run.
for threads in 1 4; do
  python3 - "$tmp/dump_$threads.json" >"$tmp/staged_$threads.txt" <<'PY'
import json, sys
cells = json.load(open(sys.argv[1]))["staged"]
assert cells, "no staged cell in the dump"
for cell in cells:
    for key in ("rows", "tree_hash", "cost", "requeues", "sql_fallbacks",
                "staged_files", "memory_stores", "sim_seconds"):
        print(key, cell[key])
PY
done
cat "$tmp/staged_1.txt"
diff "$tmp/staged_1.txt" "$tmp/staged_4.txt"
echo "OK: staged, bounded grow identical at 1 and 4 scan workers"

# The paper grid (Figs 4-8, §5.2.5, A1-A3, Gaussian): every cell's tree,
# simulated seconds, cost counters and middleware counts must not depend on
# the scan worker count; only wall_s may differ.
for threads in 1 4; do
  echo "== paper grid with SQLCLASS_PARALLEL_SCAN_THREADS=$threads =="
  SQLCLASS_PARALLEL_SCAN_THREADS=$threads \
    "$BUILD_DIR/bench/bench_paper" --smoke \
    --dump="$tmp/paper_$threads.json" >/dev/null
  sed -E 's/"wall_s":[0-9.e+-]+/"wall_s":_/g' \
    "$tmp/paper_$threads.json" >"$tmp/paper_invariant_$threads.json"
done
diff "$tmp/paper_invariant_1.json" "$tmp/paper_invariant_4.json"
echo "OK: paper grid identical at 1 and 4 scan workers"

# Bitmap counting path: a run that counts the batch's nodes on one scan
# worker and a run on four must agree on everything but wall time (the
# per-word charges are made on the calling thread and are cache-state-
# invariant, and the bench itself verifies the bitmap-served tree equals
# the row-scan tree).
for threads in 1 4; do
  echo "== bitmap counting bench with SQLCLASS_PARALLEL_SCAN_THREADS=$threads =="
  SQLCLASS_PARALLEL_SCAN_THREADS=$threads \
    "$BUILD_DIR/bench/bench_bitmap" --smoke \
    --dump="$tmp/bitmap_$threads.json" >/dev/null
  sed -E 's/"([a-z_]*wall[a-z_]*|wall_speedup)":[0-9.e+-]+/"\1":_/g' \
    "$tmp/bitmap_$threads.json" >"$tmp/bitmap_invariant_$threads.json"
done
diff "$tmp/bitmap_invariant_1.json" "$tmp/bitmap_invariant_4.json"
echo "OK: bitmap-served trees and simulated cost identical at 1 and 4 scan workers"

# Sharded scan-out (Rule 8): the bench grows the same tree over a shard-
# count x worker-thread grid and fails itself unless every cell is byte-
# identical to the unsharded serial run with identical simulated seconds.
# Two full runs must additionally agree on everything but wall time.
for run in 1 2; do
  echo "== sharded scan-out bench, run $run =="
  "$BUILD_DIR/bench/bench_shard" --smoke \
    --dump="$tmp/shard_$run.json" >/dev/null
  sed -E 's/"wall_seconds":[0-9.e+-]+/"wall_seconds":_/g' \
    "$tmp/shard_$run.json" >"$tmp/shard_invariant_$run.json"
done
diff "$tmp/shard_invariant_1.json" "$tmp/shard_invariant_2.json"
echo "OK: shard-served trees and simulated cost identical across runs"

# Out-of-process shard transport: two full runs through real subprocess
# workers (fork + pipe RPC) must also agree on everything but wall time —
# the wire codec, the worker scan, and the fixed-order merge are all
# deterministic, so the process boundary may not be visible in the output.
for run in 1 2; do
  echo "== sharded scan-out bench over subprocess workers, run $run =="
  SQLCLASS_SHARDS_TRANSPORT=subprocess \
    "$BUILD_DIR/bench/bench_shard" --smoke \
    --dump="$tmp/shard_oop_$run.json" >/dev/null
  sed -E 's/"wall_seconds":[0-9.e+-]+/"wall_seconds":_/g' \
    "$tmp/shard_oop_$run.json" >"$tmp/shard_oop_invariant_$run.json"
done
diff "$tmp/shard_oop_invariant_1.json" "$tmp/shard_oop_invariant_2.json"
echo "OK: subprocess-transport runs identical across runs"

# The transport itself may not leak into the results either: a subprocess
# run's invariant fields must equal the in-process run's bit for bit
# (wall-clock fields and the transport label are the only legal deltas).
sed -E 's/"transport":"[a-z]+"/"transport":_/g' \
  "$tmp/shard_invariant_1.json" >"$tmp/shard_xport_inproc.json"
sed -E 's/"transport":"[a-z]+"/"transport":_/g' \
  "$tmp/shard_oop_invariant_1.json" >"$tmp/shard_xport_oop.json"
diff "$tmp/shard_xport_inproc.json" "$tmp/shard_xport_oop.json"
echo "OK: subprocess transport byte-identical to in-process transport"
