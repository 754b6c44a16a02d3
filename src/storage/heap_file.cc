#include "storage/heap_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/bytes.h"
#include "common/fault_injector.h"
#include "storage/checksum.h"

namespace sqlclass {

namespace {

/// Row count stored in a page header.
uint32_t PageRowCount(const char* page) {
  return DecodeFixed32(page + kPageRowCountOffset);
}

/// The version word of a page whose values take `width` bytes.
uint32_t PageVersion(ValueWidth width) {
  return width == ValueWidth::kOne ? kHeapNarrowVersion : kHeapWideVersion;
}

/// Writes the full header over the page: magic, version, row count, and
/// the checksum of everything but the checksum word.
void StampPageHeader(char* page, ValueWidth width, uint32_t rows) {
  EncodeFixed32(page + kPageMagicOffset, kPageMagic);
  EncodeFixed32(page + kPageVersionOffset, PageVersion(width));
  EncodeFixed32(page + kPageRowCountOffset, rows);
  EncodeFixed32(page + kPageChecksumOffset, ComputePageChecksum(page));
}

/// Structural check of the first header words: the magic, and the value
/// width the version records. Distinct from checksum verification: a failed
/// magic or an unknown version means "not one of our pages", an IoError; a
/// failed checksum means our page rotted, a DataLoss.
StatusOr<ValueWidth> PageWidth(const char* page, const std::string& path) {
  if (DecodeFixed32(page + kPageMagicOffset) != kPageMagic) {
    return Status::IoError("bad page magic in " + path);
  }
  switch (DecodeFixed32(page + kPageVersionOffset)) {
    case kHeapWideVersion:
      return ValueWidth::kFour;
    case kHeapNarrowVersion:
      return ValueWidth::kOne;
  }
  return Status::IoError(
      "unsupported heap page version " +
      std::to_string(DecodeFixed32(page + kPageVersionOffset)) + " in " +
      path);
}

/// Recomputes and compares the page checksum (no-op when verification is
/// globally disabled). `counters` (nullable) gets the failure tally.
Status VerifyPageChecksum(const char* page, const std::string& path,
                          IoCounters* counters) {
  if (!PageChecksumVerificationEnabled()) return Status::OK();
  const uint32_t stored = DecodeFixed32(page + kPageChecksumOffset);
  const uint32_t actual = ComputePageChecksum(page);
  if (stored != actual) {
    if (counters != nullptr) ++counters->checksum_failures;
    return Status::DataLoss("page checksum mismatch in " + path);
  }
  return Status::OK();
}

}  // namespace

uint32_t ComputePageChecksum(const char* page) {
  const uint32_t head = Checksum32(page, kPageChecksumOffset);
  return Checksum32(page + kPageHeaderBytes, kPageSize - kPageHeaderBytes,
                    head);
}

std::vector<PageRange> MakePageMorsels(uint64_t num_pages,
                                       uint64_t pages_per_morsel) {
  if (pages_per_morsel == 0) pages_per_morsel = 1;
  std::vector<PageRange> morsels;
  morsels.reserve(
      static_cast<size_t>((num_pages + pages_per_morsel - 1) /
                          pages_per_morsel));
  for (uint64_t begin = 0; begin < num_pages; begin += pages_per_morsel) {
    const uint64_t end = std::min(num_pages, begin + pages_per_morsel);
    morsels.push_back(PageRange{begin, end});
  }
  return morsels;
}

// ---------------------------------------------------------------- writer

HeapFileWriter::HeapFileWriter(std::string path, std::FILE* file,
                               RowCodec codec, IoCounters* counters)
    : path_(std::move(path)),
      file_(file),
      codec_(codec),
      counters_(counters),
      buffer_(kWriteBufferPages * kPageSize, 0) {}

HeapFileWriter::~HeapFileWriter() {
  // fault: uncovered(best-effort close in destructor: abandoned writer; Finish() owns flush/close error reporting)
  if (file_ != nullptr) std::fclose(file_);
}

StatusOr<std::unique_ptr<HeapFileWriter>> HeapFileWriter::Create(
    const std::string& path, int num_columns, IoCounters* counters,
    ValueWidth width) {
  if (num_columns <= 0) {
    return Status::InvalidArgument("heap file needs >= 1 column");
  }
  SQLCLASS_FAULT_POINT(faults::kStorageOpen);
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot create heap file: " + path);
  }
  return std::unique_ptr<HeapFileWriter>(new HeapFileWriter(
      path, file, RowCodec(num_columns, width), counters));
}

StatusOr<std::unique_ptr<HeapFileWriter>> HeapFileWriter::OpenForAppend(
    const std::string& path, int num_columns, IoCounters* counters) {
  if (num_columns <= 0) {
    return Status::InvalidArgument("heap file needs >= 1 column");
  }
  SQLCLASS_FAULT_POINT(faults::kStorageOpen);
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  if (file == nullptr) {
    return Status::IoError("cannot open heap file for append: " + path);
  }
  auto writer = std::unique_ptr<HeapFileWriter>(
      new HeapFileWriter(path, file, RowCodec(num_columns), counters));

  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::IoError("seek failed for " + path);
  }
  long size = std::ftell(file);
  if (size < 0) return Status::IoError("ftell failed for " + path);
  if (size % static_cast<long>(kPageSize) != 0) {
    return Status::IoError("heap file size not page-aligned: " + path);
  }
  const uint64_t num_pages = static_cast<uint64_t>(size) / kPageSize;
  if (num_pages > 0) {
    const long last_offset = static_cast<long>((num_pages - 1) * kPageSize);
    if (std::fseek(file, last_offset, SEEK_SET) != 0) {
      return Status::IoError("seek failed for " + path);
    }
    // Peek only the last page's header to learn its fill level — metadata,
    // not a data-page read.
    // cost: unmetered(page-header metadata peek)
    char hdr[kPageHeaderBytes];
    if (std::fread(hdr, 1, kPageHeaderBytes, file) != kPageHeaderBytes) {
      return Status::IoError("short header read for " + path);
    }
    SQLCLASS_ASSIGN_OR_RETURN(const ValueWidth width, PageWidth(hdr, path));
    writer->codec_ = RowCodec(num_columns, width);
    const size_t slots = SlotsPerPage(writer->codec_.row_bytes());
    const uint32_t last_rows = PageRowCount(hdr);
    if (last_rows > slots) {
      return Status::IoError("corrupt page header in " + path);
    }
    writer->existing_rows_ = (num_pages - 1) * slots + last_rows;
    if (last_rows < slots) {
      // Reload the partially filled last page into buffer slot 0 (nothing
      // is buffered yet on open) and continue it in place — the next flush
      // rewrites it at the same offset. A real data-page read: charge it.
      if (std::fseek(file, last_offset, SEEK_SET) != 0) {
        return Status::IoError("seek failed for " + path);
      }
      SQLCLASS_FAULT_POINT(faults::kStorageRead);
      if (std::fread(writer->buffer_.data(), 1, kPageSize, file) !=
          kPageSize) {
        return Status::IoError("short page read for " + path);
      }
      if (counters != nullptr) ++counters->pages_read;
      SQLCLASS_RETURN_IF_ERROR(
          VerifyPageChecksum(writer->buffer_.data(), path, counters));
      writer->rows_in_page_ = last_rows;
      if (std::fseek(file, last_offset, SEEK_SET) != 0) {
        return Status::IoError("seek failed for " + path);
      }
    } else {
      // Last page full: keep writing at EOF (buffer stays zeroed — the full
      // page was never loaded, saving one page read per append-to-full).
      if (std::fseek(file, 0, SEEK_END) != 0) {
        return Status::IoError("seek failed for " + path);
      }
    }
  }
  return writer;
}

Status HeapFileWriter::Append(const Row& row) {
  assert(static_cast<int>(row.size()) == codec_.num_columns());
  return AppendRows(row.data(), 1);
}

Status HeapFileWriter::AppendRows(const Value* rows, size_t num_rows) {
  if (finished_) return Status::Internal("Append after Finish");
  if (!codec_.Fits(rows, num_rows)) {
    return Status::InvalidArgument(
        "value outside [0, 255] appended to one-byte heap file " + path_);
  }
  const size_t slots = SlotsPerPage(codec_.row_bytes());
  while (num_rows > 0) {
    const size_t n = std::min(num_rows, slots - rows_in_page_);
    codec_.EncodeRows(rows, n,
                      CurrentPage() + kPageHeaderBytes +
                          rows_in_page_ * codec_.row_bytes());
    rows += n * codec_.num_columns();
    num_rows -= n;
    rows_in_page_ += static_cast<uint32_t>(n);
    rows_written_ += n;
    if (counters_ != nullptr) counters_->rows_written += n;
    if (rows_in_page_ == slots) SQLCLASS_RETURN_IF_ERROR(SealPage());
  }
  return Status::OK();
}

Status HeapFileWriter::SealPage() {
  if (rows_in_page_ == 0) return Status::OK();
  // The buffer slot still holds whatever page was flushed from it last:
  // zero the slots this page leaves empty, so that they read as zeros.
  char* page = CurrentPage();
  const size_t used = kPageHeaderBytes + rows_in_page_ * codec_.row_bytes();
  std::memset(page + used, 0, kPageSize - used);
  StampPageHeader(page, codec_.width(), rows_in_page_);
  rows_in_page_ = 0;
  ++pages_buffered_;
  if (pages_buffered_ == kWriteBufferPages) return FlushBuffer();
  return Status::OK();
}

Status HeapFileWriter::FlushBuffer() {
  if (pages_buffered_ == 0) return Status::OK();
  SQLCLASS_FAULT_POINT(faults::kStorageWrite);
  const size_t bytes = pages_buffered_ * kPageSize;
  if (std::fwrite(buffer_.data(), 1, bytes, file_) != bytes) {
    return Status::IoError("short write to " + path_);
  }
  // One logical page write per sealed page, exactly as when each page was
  // flushed individually.
  if (counters_ != nullptr) counters_->pages_written += pages_buffered_;
  pages_buffered_ = 0;
  return Status::OK();
}

Status HeapFileWriter::Finish() {
  if (finished_) return Status::OK();
  SQLCLASS_RETURN_IF_ERROR(SealPage());
  SQLCLASS_RETURN_IF_ERROR(FlushBuffer());
  SQLCLASS_FAULT_POINT(faults::kStorageClose);
  // Buffered stdio defers real writes: an ENOSPC from the kernel can first
  // surface at flush/close time, and ignoring it silently truncates the
  // file. The file stays open on flush failure so the destructor releases
  // the handle.
  if (std::fflush(file_) != 0 || std::ferror(file_) != 0) {
    return Status::IoError("flush failed for " + path_);
  }
  if (std::fclose(file_) != 0) {
    file_ = nullptr;
    return Status::IoError("close failed for " + path_);
  }
  file_ = nullptr;
  finished_ = true;
  return Status::OK();
}

// ---------------------------------------------------------------- reader

HeapFileReader::HeapFileReader(std::string path, int fd, int num_columns,
                               IoCounters* counters)
    : path_(std::move(path)),
      fd_(fd),
      codec_(num_columns),
      counters_(counters),
      page_(kPageSize, 0) {}

HeapFileReader::~HeapFileReader() {
  // fault: uncovered(best-effort close in destructor: read-only descriptor; read paths report errors)
  ::close(fd_);
}

StatusOr<std::unique_ptr<HeapFileReader>> HeapFileReader::Open(
    const std::string& path, int num_columns, IoCounters* counters) {
  if (num_columns <= 0) {
    return Status::InvalidArgument("heap file needs >= 1 column");
  }
  SQLCLASS_FAULT_POINT(faults::kStorageOpen);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError("cannot open heap file: " + path);
  }
  auto reader = std::unique_ptr<HeapFileReader>(
      new HeapFileReader(path, fd, num_columns, counters));

  // Determine page count from file size, then row count by summing the last
  // page header (all pages but the last are full).
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    return Status::IoError("stat failed for " + path);
  }
  if (st.st_size % static_cast<off_t>(kPageSize) != 0) {
    return Status::IoError("heap file size not page-aligned: " + path);
  }
  reader->num_pages_ = static_cast<uint64_t>(st.st_size) / kPageSize;
  if (reader->num_pages_ == 0) {
    reader->num_rows_ = 0;
  } else {
    // Peek the last page header without charging counters — metadata, not
    // a data-page read.
    // cost: unmetered(page-header metadata peek)
    char hdr[kPageHeaderBytes];
    if (::pread(fd, hdr, kPageHeaderBytes,
                static_cast<off_t>((reader->num_pages_ - 1) * kPageSize)) !=
        static_cast<ssize_t>(kPageHeaderBytes)) {
      return Status::IoError("short header read for " + path);
    }
    SQLCLASS_ASSIGN_OR_RETURN(const ValueWidth width, PageWidth(hdr, path));
    reader->codec_ = RowCodec(num_columns, width);
    const size_t slots = reader->slots_per_page();
    const uint32_t last_rows = PageRowCount(hdr);
    if (last_rows > slots) {
      return Status::IoError("corrupt page header in " + path);
    }
    reader->num_rows_ = (reader->num_pages_ - 1) * slots + last_rows;
  }
  SQLCLASS_RETURN_IF_ERROR(reader->Reset());
  return reader;
}

Status HeapFileReader::Reset() {
  current_page_ = 0;
  page_loaded_ = false;
  rows_in_current_page_ = 0;
  next_slot_ = 0;
  rows_returned_ = 0;
  return Status::OK();
}

Status HeapFileReader::LoadPage(uint64_t page_index) {
  if (page_index >= num_pages_) {
    return Status::Internal("page index out of range in " + path_);
  }
  SQLCLASS_FAULT_POINT(faults::kStorageRead);
  if (::pread(fd_, page_.data(), kPageSize,
              static_cast<off_t>(page_index * kPageSize)) !=
      static_cast<ssize_t>(kPageSize)) {
    return Status::IoError("short page read for " + path_);
  }
  if (counters_ != nullptr) ++counters_->pages_read;
  SQLCLASS_ASSIGN_OR_RETURN(const ValueWidth width,
                            PageWidth(page_.data(), path_));
  if (width != codec_.width()) {
    return Status::IoError(
        "heap page " + std::to_string(page_index) + " has version " +
        std::to_string(PageVersion(width)) + ", the file " +
        std::to_string(PageVersion(codec_.width())) + ", in " + path_);
  }
  SQLCLASS_RETURN_IF_ERROR(
      VerifyPageChecksum(page_.data(), path_, counters_));
  current_page_ = page_index;
  page_loaded_ = true;
  rows_in_current_page_ = PageRowCount(page_.data());
  if (rows_in_current_page_ > slots_per_page()) {
    page_loaded_ = false;
    return Status::IoError("corrupt page header in " + path_);
  }
  return Status::OK();
}

StatusOr<bool> HeapFileReader::Next(Row* row) {
  if (rows_returned_ >= num_rows_) return false;
  if (!page_loaded_ || next_slot_ >= rows_in_current_page_) {
    uint64_t next_page = page_loaded_ ? current_page_ + 1 : 0;
    SQLCLASS_RETURN_IF_ERROR(LoadPage(next_page));
    next_slot_ = 0;
  }
  codec_.Decode(
      page_.data() + kPageHeaderBytes + next_slot_ * codec_.row_bytes(), row);
  ++next_slot_;
  ++rows_returned_;
  if (counters_ != nullptr) ++counters_->rows_read;
  return true;
}

Status HeapFileReader::ReadPageInto(uint64_t page_index, RowBatch* batch) {
  batch->Reset(codec_.num_columns());
  if (page_index >= num_pages_) {
    return Status::InvalidArgument("page index out of range: " +
                                   std::to_string(page_index));
  }
  if (!page_loaded_ || page_index != current_page_) {
    SQLCLASS_RETURN_IF_ERROR(LoadPage(page_index));
  }
  // Positioned read: invalidate the sequential position like ReadAt does.
  next_slot_ = rows_in_current_page_;
  const uint32_t count = rows_in_current_page_;
  if (count > 0) {
    codec_.DecodeRows(page_.data() + kPageHeaderBytes, count,
                      batch->AppendRows(count));
  }
  if (counters_ != nullptr) counters_->rows_read += count;
  return Status::OK();
}

Status HeapFileReader::ReadAt(Tid tid, Row* row) {
  if (tid >= num_rows_) {
    return Status::InvalidArgument("tid out of range: " + std::to_string(tid));
  }
  const size_t slots = slots_per_page();
  const uint64_t page_index = tid / slots;
  const uint32_t slot = static_cast<uint32_t>(tid % slots);
  if (!page_loaded_ || page_index != current_page_) {
    SQLCLASS_RETURN_IF_ERROR(LoadPage(page_index));
    // A positioned read invalidates the sequential scan position; callers
    // interleaving Next() and ReadAt() must Reset() in between.
    next_slot_ = rows_in_current_page_;
  }
  if (slot >= rows_in_current_page_) {
    return Status::Internal("slot out of range for tid " + std::to_string(tid));
  }
  codec_.Decode(page_.data() + kPageHeaderBytes + slot * codec_.row_bytes(),
                row);
  if (counters_ != nullptr) ++counters_->rows_read;
  return Status::OK();
}

}  // namespace sqlclass
