#!/usr/bin/env bash
# Drives examples/sql_shell through \explain, \cc, \cost and \quit, and
# checks that it exits 0 and that EXPLAIN names the sequential scan Execute
# runs on the demo table.
#
# Usage: scripts/sql_shell_smoke.sh SQL_SHELL_BINARY

set -euo pipefail
if [[ $# -ne 1 ]]; then
  echo "usage: $0 SQL_SHELL_BINARY" >&2
  exit 2
fi

out=$(printf '%s\n' \
  '\explain SELECT * FROM census WHERE age = 1' \
  '\cc age' \
  '\cost' \
  '\quit' | "$1")
printf '%s\n' "$out"
if [[ "$out" != *"seq scan on census"* ]]; then
  echo "error: EXPLAIN output names no seq scan on census" >&2
  exit 1
fi
