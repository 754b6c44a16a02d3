#!/bin/sh
# Fails unless LIBRARY contains a POPCNT instruction: the popcnt clones of
# the bitmap gather kernels (storage/bitmap/bitmap.h) must reach the
# middleware library, or every bitmap popcount is a libgcc __popcountdi2
# call. Symbol names such as `GatherAndInto.popcnt` do not count, only an
# instruction mnemonic.
#
# Usage: tools/lint_popcnt.sh OBJDUMP LIBRARY
set -eu
if "$1" -d "$2" | grep -Eq '[[:space:]]popcnt[[:space:]]'; then
  echo "OK: popcnt instruction present in $2"
else
  echo "FAIL: no popcnt instruction in $2" >&2
  exit 1
fi
