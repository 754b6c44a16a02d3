#ifndef SQLCLASS_STORAGE_BITMAP_BITMAP_H_
#define SQLCLASS_STORAGE_BITMAP_BITMAP_H_

#include <cstddef>
#include <cstdint>

namespace sqlclass {

/// Word-level primitives for dense row bitmaps. A bitmap is an array of
/// 64-bit words; bit `r` of the bitmap (word r/64, bit r%64) is set iff row
/// `r` of the indexed table satisfies the bitmap's condition. Every bitmap
/// over the same table has the same word count, and bits at or beyond the
/// row count ("tail bits") are always zero — the invariant that lets a
/// popcount over the raw words equal a row count with no masking.

inline constexpr uint64_t kBitmapWordBits = 64;

/// Words needed to hold one bit per row.
inline uint64_t BitmapWordCount(uint64_t num_rows) {
  return (num_rows + kBitmapWordBits - 1) / kBitmapWordBits;
}

inline void SetBit(uint64_t* words, uint64_t row) {
  words[row / kBitmapWordBits] |= uint64_t{1} << (row % kBitmapWordBits);
}

inline bool TestBit(const uint64_t* words, uint64_t row) {
  return (words[row / kBitmapWordBits] >> (row % kBitmapWordBits)) & 1u;
}

/// Fills `words` with ones for the first `num_rows` bits and zeros for the
/// tail — the identity element of FoldAnd* (the "all rows" bitmap).
inline void FillAllRows(uint64_t* words, uint64_t num_rows) {
  const uint64_t n = BitmapWordCount(num_rows);
  for (uint64_t i = 0; i < n; ++i) words[i] = ~uint64_t{0};
  const uint64_t rem = num_rows % kBitmapWordBits;
  if (n > 0 && rem != 0) words[n - 1] = (uint64_t{1} << rem) - 1;
}

/// acc &= other, word by word.
inline void FoldAnd(uint64_t* acc, const uint64_t* other, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) acc[i] &= other[i];
}

/// acc &= ~other, word by word. Tail bits stay zero because they are zero
/// in `acc` already.
inline void FoldAndNot(uint64_t* acc, const uint64_t* other, uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) acc[i] &= ~other[i];
}

// The gather kernels below run over a node's *live words*: the indices of
// the non-zero words of its bitmap, ascending. Operands named `a`/`out` are
// compacted over that list (entry j is word live[j]); `b` is a full-width
// bitmap. On x86-64 GCC/Clang each kernel is compiled twice, with and
// without the POPCNT instruction, and the loader picks the clone the CPU
// supports — no global -march, so the binary still runs on any x86-64.
// ThreadSanitizer builds skip the clones: their run-time resolver runs
// before the sanitizer's runtime is up and crashes at load. Every clone
// starts on a 64-byte boundary, so how fast its loop runs does not depend
// on how much code the linker places ahead of it
// (tools/lint_kernel_align.sh checks this).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SQLCLASS_BITMAP_TSAN 1
#endif
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__)) && \
    !defined(__SANITIZE_THREAD__) && !defined(SQLCLASS_BITMAP_TSAN)
#define SQLCLASS_POPCNT_CLONES \
  __attribute__((target_clones("popcnt", "default"), aligned(64)))
#else
#define SQLCLASS_POPCNT_CLONES
#endif

/// out[j] = a[j] & b[live[j]] for j < n; returns the popcount of `out`.
SQLCLASS_POPCNT_CLONES inline uint64_t GatherAndInto(const uint64_t* a,
                                                     const uint64_t* b,
                                                     const uint32_t* live,
                                                     uint64_t n,
                                                     uint64_t* out) {
  uint64_t total = 0;
  for (uint64_t j = 0; j < n; ++j) {
    out[j] = a[j] & b[live[j]];
    total += static_cast<uint64_t>(__builtin_popcountll(out[j]));
  }
  return total;
}

/// popcount(a[j] & b[live[j]]) summed over j < n, without materializing
/// the intersection.
SQLCLASS_POPCNT_CLONES inline uint64_t GatherAndPopcount(const uint64_t* a,
                                                         const uint64_t* b,
                                                         const uint32_t* live,
                                                         uint64_t n) {
  uint64_t total = 0;
  for (uint64_t j = 0; j < n; ++j) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[j] & b[live[j]]));
  }
  return total;
}

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_BITMAP_BITMAP_H_
