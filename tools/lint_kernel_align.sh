#!/bin/sh
# Fails unless every target clone of the bitmap gather kernels
# (GatherAndInto and GatherAndPopcount, storage/bitmap/bitmap.h) in FILE
# starts on a 64-byte boundary: at an offset that is a multiple of 64 in a
# text section aligned to at least 64 bytes. Unaligned, the kernels' speed
# moves with the size of unrelated code linked ahead of them. FILE may be
# an archive, an object or a linked binary; it must hold at least one
# `.popcnt` and one `.default` clone of each kernel.
#
# Usage: tools/lint_kernel_align.sh OBJDUMP FILE
set -eu
"$1" -h -t "$2" | awk '
  # A section header: index, name, size, VMA, LMA, file offset, 2**align.
  $1 ~ /^[0-9]+$/ && $7 ~ /^2\*\*[0-9]+$/ { align[$2] = substr($7, 4) + 0 }
  # A symbol: value, flags, section, size, name.
  $NF ~ /GatherAnd(Into|Popcount).*\.(popcnt|default)$/ {
    kernel = $NF
    sub(/.*GatherAnd/, "GatherAnd", kernel)
    sub(/E.*\./, ".", kernel)
    seen[kernel] = 1
    if ($1 !~ /[048cC]0$/ || align[$(NF - 2)] < 6) {
      printf "FAIL: %s at 0x%s in %s (section aligned to 2**%d)\n",
             $NF, $1, $(NF - 2), align[$(NF - 2)]
      bad = 1
    }
    ++clones
  }
  END {
    split("GatherAndInto.popcnt GatherAndInto.default " \
          "GatherAndPopcount.popcnt GatherAndPopcount.default", want, " ")
    for (i in want) {
      if (!(want[i] in seen)) {
        printf "FAIL: no %s clone found\n", want[i]
        bad = 1
      }
    }
    if (bad) exit 1
    printf "OK: %d gather-kernel clones start on 64-byte boundaries\n", clones
  }
'
