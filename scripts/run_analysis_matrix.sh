#!/usr/bin/env bash
# Runs the full static/dynamic analysis matrix locally, one leg at a time:
#
#   werror   -Werror build (plus -Wthread-safety under clang) + full ctest
#   tidy     clang-tidy over src/ (skipped when clang-tidy is absent)
#   asan     -fsanitize=address,undefined build + full ctest
#   tsan     -fsanitize=thread build + the concurrency-labeled ctest subset,
#            then the service's concurrency tests repeated until-fail:20
#   faults   -fsanitize=address,undefined build + the fault-injection ctest
#            subset (ctest -L faults): every registered fault point driven
#            through its failure path under ASan
#   approx   -fsanitize=address,undefined build + the approximate-counting
#            ctest subset (ctest -L approx): scramble files, the sample gate,
#            and its fault fallbacks under ASan
#   shards   -fsanitize=address,undefined build + the sharded-scan-out ctest
#            subset (ctest -L shards): partitioner roundtrip, deterministic
#            CC merge, and shard-fault recovery under ASan
#   shards-oop  -fsanitize=address,undefined build + the out-of-process
#            transport ctest subset (ctest -L shards-oop): wire-codec
#            fuzzing, subprocess RPC deadlines/crashes/torn frames, and
#            replica-shard failover under ASan
#   lint     invariant lints: cost accounting, env-knob docs, unchecked
#            Status, fault-point coverage, determinism — each with a
#            self-test leg proving it still detects its injected violation
#            (ctest -L lint, werror build)
#
# Each leg builds into build-analysis/<leg> so an incremental rerun is
# cheap. Select legs by name: scripts/run_analysis_matrix.sh asan tsan
# (default: every leg). Environment: JOBS=<n> overrides the parallelism.
#
# Exits non-zero on the first failing leg.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc 2>/dev/null || echo 2)}
BASE=build-analysis
LEGS=("$@")
if [[ ${#LEGS[@]} -eq 0 ]]; then
  LEGS=(werror tidy asan tsan faults approx shards shards-oop lint)
fi

note() { printf '\n== %s ==\n' "$*"; }

configure_and_build() {
  local dir=$1
  shift
  cmake -B "$dir" -S . "$@" >"$dir.configure.log" 2>&1 ||
    { cat "$dir.configure.log"; return 1; }
  cmake --build "$dir" -j "$JOBS"
}

run_leg() {
  local leg=$1
  local dir="$BASE/$leg"
  mkdir -p "$BASE"
  case "$leg" in
    werror)
      note "werror: -Werror (thread-safety analysis under clang) + ctest"
      configure_and_build "$dir" -DSQLCLASS_WERROR=ON
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
      ;;
    tidy)
      note "tidy: clang-tidy (bugprone, concurrency, performance)"
      if ! command -v clang-tidy >/dev/null 2>&1; then
        echo "clang-tidy not installed: skipping the tidy leg"
        return 0
      fi
      configure_and_build "$dir" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
      # Headers are covered through HeaderFilterRegex in .clang-tidy.
      find src -name '*.cc' -print0 |
        xargs -0 -n 8 -P "$JOBS" clang-tidy -p "$dir" --quiet
      ;;
    asan)
      note "asan: -fsanitize=address,undefined + full ctest"
      configure_and_build "$dir" -DSQLCLASS_SANITIZE=address,undefined
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
      ;;
    tsan)
      note "tsan: -fsanitize=thread + ctest -L concurrency"
      configure_and_build "$dir" -DSQLCLASS_SANITIZE=thread
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" -L concurrency
      # The service's scan start and re-registration paths are
      # interleaving-sensitive, and a derived sibling table reads tables the
      # scan pool's workers filled: repeat them so a rare schedule shows.
      ctest --test-dir "$dir" --output-on-failure -j "$JOBS" \
        --no-tests=error -L concurrency -R 'Service|DerivedSibling' --repeat until-fail:20
      ;;
    faults)
      note "faults: -fsanitize=address,undefined + ctest -L faults"
      # Builds into (or incrementally refreshes) the asan tree when present;
      # failure paths must be leak- and overflow-clean, not just return the
      # right Status.
      local faults_dir="$BASE/asan"
      if [[ ! -d "$faults_dir" ]]; then
        faults_dir="$dir"
      fi
      configure_and_build "$faults_dir" -DSQLCLASS_SANITIZE=address,undefined
      ctest --test-dir "$faults_dir" --output-on-failure -j "$JOBS" \
        --no-tests=error -L faults
      ;;
    approx)
      note "approx: -fsanitize=address,undefined + ctest -L approx"
      # Shares the asan tree when present, like the faults leg: the sample
      # path's escalation and fallback code must be clean under ASan, not
      # just produce the right tree.
      local approx_dir="$BASE/asan"
      if [[ ! -d "$approx_dir" ]]; then
        approx_dir="$dir"
      fi
      configure_and_build "$approx_dir" -DSQLCLASS_SANITIZE=address,undefined
      ctest --test-dir "$approx_dir" --output-on-failure -j "$JOBS" \
        --no-tests=error -L approx
      ;;
    shards)
      note "shards: -fsanitize=address,undefined + ctest -L shards"
      # Shares the asan tree when present, like the faults and approx legs:
      # the fan-out, merge, and rescan paths must be clean under ASan, not
      # just grow the right tree.
      local shards_dir="$BASE/asan"
      if [[ ! -d "$shards_dir" ]]; then
        shards_dir="$dir"
      fi
      configure_and_build "$shards_dir" -DSQLCLASS_SANITIZE=address,undefined
      ctest --test-dir "$shards_dir" --output-on-failure -j "$JOBS" \
        --no-tests=error -L shards
      ;;
    shards-oop)
      note "shards-oop: -fsanitize=address,undefined + ctest -L shards-oop"
      # Shares the asan tree when present. The subprocess transport forks
      # real sqlclass_shard_worker processes, so the whole RPC path — wire
      # codec, deadline kills, respawns, replica failover — runs under ASan
      # on both sides of the pipe.
      local oop_dir="$BASE/asan"
      if [[ ! -d "$oop_dir" ]]; then
        oop_dir="$dir"
      fi
      configure_and_build "$oop_dir" -DSQLCLASS_SANITIZE=address,undefined
      ctest --test-dir "$oop_dir" --output-on-failure -j "$JOBS" \
        --no-tests=error -L shards-oop
      ;;
    lint)
      note "lint: cost / env-docs / status / fault-coverage / determinism" \
           "invariants + self-tests"
      # Reuses the werror tree when present; configures a plain one if not.
      # --no-tests=error: if the label set ever regresses to zero tests the
      # leg must fail loudly, not pass vacuously.
      local lint_dir="$BASE/werror"
      if [[ ! -d "$lint_dir" ]]; then
        lint_dir="$BASE/lint"
        cmake -B "$lint_dir" -S . >/dev/null
      fi
      ctest --test-dir "$lint_dir" --output-on-failure --no-tests=error \
        -L lint
      ;;
    *)
      echo "unknown leg: $leg (expected: werror tidy asan tsan faults approx shards shards-oop lint)" >&2
      return 2
      ;;
  esac
}

for leg in "${LEGS[@]}"; do
  run_leg "$leg"
done
note "analysis matrix passed: ${LEGS[*]}"
