#ifndef SQLCLASS_STORAGE_HEAP_FILE_H_
#define SQLCLASS_STORAGE_HEAP_FILE_H_

#include <cassert>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "catalog/row.h"
#include "common/status.h"
#include "storage/io_counters.h"
#include "storage/row_batch.h"
#include "storage/row_codec.h"

namespace sqlclass {

/// Page layout:
///   [magic: u32][version: u32][row_count: u32][checksum: u32][rows...]
/// Rows are fixed-width slots so a Tid is simply
/// (page_index * slots_per_page + slot). The version word records the
/// slot's value width (RowCodec): 2 for four-byte values, 3 for one-byte
/// values. Every page of a file carries the same version; readers learn it
/// from the last page's header and reject a page that disagrees. The
/// checksum covers the whole page except its own word; writers always
/// stamp it, readers verify unless SQLCLASS_PAGE_CHECKSUMS=0 (a mismatch
/// surfaces as StatusCode::kDataLoss). v1 pages (bare row-count header) are
/// not readable — heap files never outlive the build that wrote them.
inline constexpr size_t kPageSize = 8192;
inline constexpr uint32_t kPageMagic = 0x53514C43;  // "SQLC"
inline constexpr uint32_t kHeapWideVersion = 2;    // four-byte values
inline constexpr uint32_t kHeapNarrowVersion = 3;  // one-byte values
inline constexpr size_t kPageMagicOffset = 0;
inline constexpr size_t kPageVersionOffset = sizeof(uint32_t);
inline constexpr size_t kPageRowCountOffset = 2 * sizeof(uint32_t);
inline constexpr size_t kPageChecksumOffset = 3 * sizeof(uint32_t);
inline constexpr size_t kPageHeaderBytes = 4 * sizeof(uint32_t);

/// Checksum of a full kPageSize page: every byte except the checksum word
/// itself. What SealPage stamps at kPageChecksumOffset and what readers
/// recompute. Exposed so tests can forge or verify page trailers.
uint32_t ComputePageChecksum(const char* page);

/// Pages the writer seals before issuing one contiguous fwrite. Purely a
/// physical batching knob: page layout and per-page write accounting are
/// identical to flushing each page individually.
inline constexpr size_t kWriteBufferPages = 8;

/// Rows a page can hold for a given row width.
constexpr size_t SlotsPerPage(size_t row_bytes) {
  assert(row_bytes > 0 && row_bytes <= kPageSize - kPageHeaderBytes);
  return (kPageSize - kPageHeaderBytes) / row_bytes;
}

/// Half-open range of page indexes [begin, end) — the morsel unit handed to
/// parallel scan workers.
struct PageRange {
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// Splits [0, num_pages) into consecutive ranges of at most
/// `pages_per_morsel` pages, in file order. The fixed order is what makes
/// the parallel merge deterministic regardless of which worker claims which
/// morsel.
std::vector<PageRange> MakePageMorsels(uint64_t num_pages,
                                       uint64_t pages_per_morsel);

/// Append-only writer for a paged heap file on disk. Not thread-safe.
class HeapFileWriter {
 public:
  HeapFileWriter(const HeapFileWriter&) = delete;
  HeapFileWriter& operator=(const HeapFileWriter&) = delete;
  ~HeapFileWriter();

  /// Creates (truncating) `path` for rows of `num_columns` values stored
  /// `width` bytes each. `counters` (optional) accumulates physical writes.
  [[nodiscard]] static StatusOr<std::unique_ptr<HeapFileWriter>> Create(
      const std::string& path, int num_columns, IoCounters* counters,
      ValueWidth width = ValueWidth::kFour);

  /// Opens an existing heap file for appending: the final partial page is
  /// reloaded and continued at the width its last page records (an empty
  /// file continues at four bytes). `rows_written()` reports only rows
  /// appended by this writer; `existing_rows()` reports what the file
  /// already held.
  [[nodiscard]] static StatusOr<std::unique_ptr<HeapFileWriter>> OpenForAppend(
      const std::string& path, int num_columns, IoCounters* counters);

  uint64_t existing_rows() const { return existing_rows_; }

  [[nodiscard]] Status Append(const Row& row);

  /// Appends `num_rows` rows stored contiguously at `rows` (num_columns
  /// values each); the bytes written equal appending them one by one. Each
  /// page's free slots are filled with one RowCodec::EncodeRows. A one-byte
  /// file refuses the whole call with InvalidArgument, and writes none of
  /// its rows, if any value lies outside [0, 255]: values are never
  /// truncated.
  [[nodiscard]] Status AppendRows(const Value* rows, size_t num_rows);

  /// Flushes the final partial page and closes the file. Must be called;
  /// the destructor only releases resources for an abandoned writer.
  [[nodiscard]] Status Finish();

  uint64_t rows_written() const { return rows_written_; }
  const std::string& path() const { return path_; }

 private:
  HeapFileWriter(std::string path, std::FILE* file, RowCodec codec,
                 IoCounters* counters);

  /// Pointer to the page currently being filled (inside buffer_).
  char* CurrentPage() { return buffer_.data() + pages_buffered_ * kPageSize; }

  /// Zeroes the current page's unused slots, stamps its header and
  /// advances to the next buffer slot, flushing the buffer once
  /// kWriteBufferPages pages are sealed.
  [[nodiscard]] Status SealPage();

  /// Writes all sealed pages in one contiguous fwrite.
  [[nodiscard]] Status FlushBuffer();

  std::string path_;
  std::FILE* file_;
  RowCodec codec_;
  IoCounters* counters_;  // may be null
  std::vector<char> buffer_;    // kWriteBufferPages pages
  size_t pages_buffered_ = 0;   // sealed, not yet written
  uint32_t rows_in_page_ = 0;   // rows in the page being filled
  uint64_t rows_written_ = 0;
  uint64_t existing_rows_ = 0;
  bool finished_ = false;
};

/// Sequential reader over a heap file. Supports rewinding (Reset) and
/// positioned reads by Tid (used by the TID-join auxiliary structure).
class HeapFileReader {
 public:
  HeapFileReader(const HeapFileReader&) = delete;
  HeapFileReader& operator=(const HeapFileReader&) = delete;
  ~HeapFileReader();

  /// `counters` (optional) accumulates the physical page and row reads.
  /// The value width is the one the last page's header records.
  [[nodiscard]] static StatusOr<std::unique_ptr<HeapFileReader>> Open(
      const std::string& path, int num_columns, IoCounters* counters);

  /// Reads the next row into `*row`; returns false at end of file.
  /// On I/O error returns an error status.
  [[nodiscard]] StatusOr<bool> Next(Row* row);

  /// Decodes all rows of page `page_index` into `*batch` (Reset first),
  /// widening one-byte values to `Value`s. Charges the same counters as
  /// reading those rows one by one with Next(). Positioned read: like
  /// ReadAt, it invalidates the sequential scan position — callers
  /// interleaving with Next() must Reset() in between.
  [[nodiscard]] Status ReadPageInto(uint64_t page_index, RowBatch* batch);

  /// Rewinds to the first row.
  [[nodiscard]] Status Reset();

  /// Random read of the row with the given Tid. Counts one page read per
  /// call unless the Tid falls on the currently buffered page.
  [[nodiscard]] Status ReadAt(Tid tid, Row* row);

  /// Total rows in the file (from the file size and trailer page count).
  uint64_t num_rows() const { return num_rows_; }

  /// Total pages in the file (basis for morsel partitioning).
  uint64_t num_pages() const { return num_pages_; }

  /// Rows a page of this file holds: its Tids are page x slots_per_page()
  /// + slot.
  size_t slots_per_page() const { return SlotsPerPage(codec_.row_bytes()); }

  ValueWidth width() const { return codec_.width(); }

 private:
  HeapFileReader(std::string path, int fd, int num_columns,
                 IoCounters* counters);

  /// Reads page `page_index` with one positioned pread (no seek, no stdio
  /// buffer copy), then checks its magic, its version against the file's,
  /// its checksum and its row count.
  [[nodiscard]] Status LoadPage(uint64_t page_index);

  std::string path_;
  int fd_;
  RowCodec codec_;
  IoCounters* counters_;  // may be null
  std::vector<char> page_;
  uint64_t num_pages_ = 0;
  uint64_t num_rows_ = 0;
  uint64_t current_page_ = 0;     // page index loaded in page_
  bool page_loaded_ = false;
  uint32_t rows_in_current_page_ = 0;
  uint32_t next_slot_ = 0;        // next slot to return from current page
  uint64_t rows_returned_ = 0;
};

}  // namespace sqlclass

#endif  // SQLCLASS_STORAGE_HEAP_FILE_H_
