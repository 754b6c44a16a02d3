#!/usr/bin/env bash
# Regenerates every committed BENCH_*.json from the bench binaries, so the
# checked-in numbers can always be reproduced with one command. Each bench
# prints its table to stdout and rewrites its JSON dump in the repo root;
# a bench that fails its own acceptance gate (e.g. bench_paper's ext-approx
# 2x-within-0.5pp target) fails this script.
#
# Usage: scripts/run_benches.sh [BUILD_DIR] [--smoke]
#   BUILD_DIR   cmake build tree holding bench/ binaries (default: build)
#   --smoke     tiny instances, dumps written to a temp dir and discarded —
#               a fast end-to-end plumbing check (this is what the
#               `perf`-labeled run_benches_smoke ctest runs)

set -euo pipefail
BUILD_DIR=build
SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --smoke) SMOKE=1 ;;
    *) BUILD_DIR=$arg ;;
  esac
done
cd "$(dirname "$0")/.."

# name -> committed dump file; keep in sync with bench/CMakeLists.txt.
BENCHES=(
  "bench_faults:BENCH_faults.json"
  "bench_paper:BENCH_paper.json"
)

for entry in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/${entry%%:*}"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin missing — build first:" >&2
    echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 1
  fi
done

outdir=.
extra=()
if [[ $SMOKE -eq 1 ]]; then
  outdir=$(mktemp -d)
  trap 'rm -rf "$outdir"' EXIT
  extra=(--smoke)
fi

for entry in "${BENCHES[@]}"; do
  name=${entry%%:*}
  dump=${entry##*:}
  echo "== $name =="
  "$BUILD_DIR/bench/$name" "${extra[@]}" --dump="$outdir/$dump"
  echo
done

if [[ $SMOKE -eq 1 ]]; then
  echo "smoke OK — dumps discarded ($outdir)"
else
  echo "regenerated: $(printf '%s ' "${BENCHES[@]##*:}")"
fi
