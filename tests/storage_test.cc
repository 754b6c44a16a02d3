#include "storage/heap_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>

#include "storage/row_store.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

std::vector<Row> WriteAndReadBack(const std::string& path, int columns,
                                  const std::vector<Row>& rows,
                                  IoCounters* io) {
  auto writer = HeapFileWriter::Create(path, columns, io);
  EXPECT_TRUE(writer.ok());
  for (const Row& row : rows) {
    EXPECT_TRUE((*writer)->Append(row).ok());
  }
  EXPECT_TRUE((*writer)->Finish().ok());

  auto reader = HeapFileReader::Open(path, columns, io);
  EXPECT_TRUE(reader.ok());
  std::vector<Row> read;
  Row row;
  while (true) {
    auto more = (*reader)->Next(&row);
    EXPECT_TRUE(more.ok());
    if (!*more) break;
    read.push_back(row);
  }
  return read;
}

TEST(RowCodecTest, RoundTrip) {
  RowCodec codec(3);
  EXPECT_EQ(codec.row_bytes(), 12u);
  Row row = {1, -5, 1000000};
  std::vector<char> buf(codec.row_bytes());
  codec.Encode(row, buf.data());
  Row decoded;
  codec.Decode(buf.data(), &decoded);
  EXPECT_EQ(decoded, row);
}

TEST(SlotsPerPageTest, Computation) {
  // (8192 - 16) / 12 = 681 for 3 columns (v2: 16-byte checksummed header).
  EXPECT_EQ(SlotsPerPage(12), (kPageSize - kPageHeaderBytes) / 12);
  EXPECT_EQ(SlotsPerPage(kPageSize - kPageHeaderBytes), 1u);
}

TEST(HeapFileTest, EmptyFileRoundTrip) {
  TempDir dir;
  IoCounters io;
  std::vector<Row> read =
      WriteAndReadBack(dir.path() + "/empty.tbl", 2, {}, &io);
  EXPECT_TRUE(read.empty());
  EXPECT_EQ(io.pages_written, 0u);
}

TEST(HeapFileTest, SmallRoundTrip) {
  TempDir dir;
  IoCounters io;
  std::vector<Row> rows = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(WriteAndReadBack(dir.path() + "/small.tbl", 2, rows, &io), rows);
  EXPECT_EQ(io.rows_written, 3u);
  EXPECT_EQ(io.rows_read, 3u);
  EXPECT_EQ(io.pages_written, 1u);
}

TEST(HeapFileTest, MultiPageRoundTrip) {
  TempDir dir;
  IoCounters io;
  Schema schema = MakeSchema({8, 8, 8, 8}, 4);
  std::vector<Row> rows = RandomRows(schema, 5000, 3);
  EXPECT_EQ(WriteAndReadBack(dir.path() + "/big.tbl", 5, rows, &io), rows);
  EXPECT_GT(io.pages_written, 1u);
  EXPECT_EQ(io.pages_read, io.pages_written);
}

TEST(HeapFileTest, ExactlyOneFullPage) {
  TempDir dir;
  IoCounters io;
  const size_t slots = SlotsPerPage(2 * sizeof(Value));
  std::vector<Row> rows(slots, Row{1, 2});
  EXPECT_EQ(WriteAndReadBack(dir.path() + "/full.tbl", 2, rows, &io).size(),
            slots);
  EXPECT_EQ(io.pages_written, 1u);
}

TEST(HeapFileTest, OneRowOverFullPage) {
  TempDir dir;
  IoCounters io;
  const size_t slots = SlotsPerPage(2 * sizeof(Value));
  std::vector<Row> rows(slots + 1, Row{1, 2});
  EXPECT_EQ(WriteAndReadBack(dir.path() + "/over.tbl", 2, rows, &io).size(),
            slots + 1);
  EXPECT_EQ(io.pages_written, 2u);
}

TEST(HeapFileTest, NumRowsFromMetadata) {
  TempDir dir;
  const std::string path = dir.path() + "/meta.tbl";
  auto writer = HeapFileWriter::Create(path, 2, nullptr);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 1234; ++i) {
    ASSERT_TRUE((*writer)->Append({i % 3, i % 5}).ok());
  }
  ASSERT_TRUE((*writer)->Finish().ok());
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 1234u);
}

TEST(HeapFileTest, ResetRewinds) {
  TempDir dir;
  const std::string path = dir.path() + "/reset.tbl";
  std::vector<Row> rows = {{1, 1}, {2, 2}};
  IoCounters io;
  WriteAndReadBack(path, 2, rows, &io);
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  Row row;
  ASSERT_TRUE(*(*reader)->Next(&row));
  EXPECT_EQ(row, (Row{1, 1}));
  ASSERT_TRUE((*reader)->Reset().ok());
  ASSERT_TRUE(*(*reader)->Next(&row));
  EXPECT_EQ(row, (Row{1, 1}));
}

TEST(HeapFileTest, ReadAtFetchesByTid) {
  TempDir dir;
  const std::string path = dir.path() + "/tid.tbl";
  Schema schema = MakeSchema({100, 100}, 2);
  std::vector<Row> rows = RandomRows(schema, 3000, 5);
  IoCounters io;
  WriteAndReadBack(path, 3, rows, &io);
  auto reader = HeapFileReader::Open(path, 3, nullptr);
  ASSERT_TRUE(reader.ok());
  Row row;
  for (Tid tid : {Tid{0}, Tid{1}, Tid{2999}, Tid{1500}, Tid{7}}) {
    ASSERT_TRUE((*reader)->ReadAt(tid, &row).ok());
    EXPECT_EQ(row, rows[tid]) << "tid " << tid;
  }
}

TEST(HeapFileTest, ReadAtOutOfRangeFails) {
  TempDir dir;
  const std::string path = dir.path() + "/oob.tbl";
  IoCounters io;
  WriteAndReadBack(path, 2, {{1, 2}}, &io);
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  Row row;
  EXPECT_FALSE((*reader)->ReadAt(5, &row).ok());
}

TEST(HeapFileTest, ReadAtSamePageChargesOnePageRead) {
  TempDir dir;
  const std::string path = dir.path() + "/probe.tbl";
  IoCounters write_io;
  WriteAndReadBack(path, 2, {{1, 2}, {3, 4}, {5, 6}}, &write_io);
  IoCounters io;
  auto reader = HeapFileReader::Open(path, 2, &io);
  ASSERT_TRUE(reader.ok());
  Row row;
  ASSERT_TRUE((*reader)->ReadAt(0, &row).ok());
  ASSERT_TRUE((*reader)->ReadAt(1, &row).ok());
  ASSERT_TRUE((*reader)->ReadAt(2, &row).ok());
  EXPECT_EQ(io.pages_read, 1u);  // all on the buffered page
  EXPECT_EQ(io.rows_read, 3u);
}

TEST(HeapFileTest, OpenMissingFileFails) {
  TempDir dir;
  auto reader = HeapFileReader::Open(dir.path() + "/nope.tbl", 2, nullptr);
  EXPECT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError);
}

TEST(HeapFileTest, OpenForAppendChargesPartialPageReload) {
  TempDir dir;
  const std::string path = dir.path() + "/append.tbl";
  IoCounters write_io;
  WriteAndReadBack(path, 2, {{1, 2}, {3, 4}}, &write_io);

  // The last page is partially filled, so reopening for append must reload
  // it — a real data-page read, charged like any other.
  IoCounters io;
  auto writer = HeapFileWriter::OpenForAppend(path, 2, &io);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(io.pages_read, 1u);
  EXPECT_EQ((*writer)->existing_rows(), 2u);
  ASSERT_TRUE((*writer)->Append({5, 6}).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  IoCounters read_io;
  auto reader = HeapFileReader::Open(path, 2, &read_io);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 3u);
}

TEST(HeapFileTest, OpenForAppendFullLastPageReadsNoDataPage) {
  TempDir dir;
  const std::string path = dir.path() + "/full.tbl";
  const size_t slots = SlotsPerPage(RowCodec(2).row_bytes());
  std::vector<Row> rows;
  for (size_t i = 0; i < slots; ++i) {
    rows.push_back({static_cast<Value>(i), static_cast<Value>(i % 7)});
  }
  IoCounters write_io;
  WriteAndReadBack(path, 2, rows, &write_io);

  // Last page exactly full: appends go to a fresh page, so open reads only
  // the page header (unmetered metadata), never a data page.
  IoCounters io;
  auto writer = HeapFileWriter::OpenForAppend(path, 2, &io);
  ASSERT_TRUE(writer.ok());
  EXPECT_EQ(io.pages_read, 0u);
  EXPECT_EQ((*writer)->existing_rows(), slots);
  ASSERT_TRUE((*writer)->Append({7, 7}).ok());
  ASSERT_TRUE((*writer)->Finish().ok());

  IoCounters read_io;
  auto reader = HeapFileReader::Open(path, 2, &read_io);
  ASSERT_TRUE(reader.ok());
  ASSERT_EQ((*reader)->num_rows(), slots + 1);
  Row row;
  uint64_t n = 0;
  Row last;
  while (true) {
    auto more = (*reader)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    last = row;
    ++n;
  }
  EXPECT_EQ(n, slots + 1);
  EXPECT_EQ(last, (Row{7, 7}));
}

TEST(HeapFileTest, AppendAfterFinishFails) {
  TempDir dir;
  auto writer = HeapFileWriter::Create(dir.path() + "/fin.tbl", 2, nullptr);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_FALSE((*writer)->Append({1, 2}).ok());
}

TEST(HeapFileTest, ZeroColumnsRejected) {
  TempDir dir;
  EXPECT_FALSE(HeapFileWriter::Create(dir.path() + "/z.tbl", 0, nullptr).ok());
  EXPECT_FALSE(HeapFileReader::Open(dir.path() + "/z.tbl", 0, nullptr).ok());
}

// ------------------------------------------------------ one-byte heap files

// Writes `rows` to a one-byte heap file at `path`.
void WriteNarrow(const std::string& path, int columns,
                 const std::vector<Row>& rows, IoCounters* io) {
  auto writer = HeapFileWriter::Create(path, columns, io, ValueWidth::kOne);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
}

// Every row of the heap file at `path`, read with Next().
std::vector<Row> ReadAll(const std::string& path, int columns) {
  std::vector<Row> read;
  auto reader = HeapFileReader::Open(path, columns, nullptr);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return read;
  Row row;
  while (true) {
    auto more = (*reader)->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) return read;
    read.push_back(row);
  }
}

// Overwrites the 4-byte header word at `offset` of page `page` and
// re-seals the page's checksum, so that only the structural checks can
// catch the change.
void ForgeHeaderWord(const std::string& path, uint64_t page, size_t offset,
                     uint32_t value) {
  std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
  std::vector<char> bytes(kPageSize);
  file.seekg(static_cast<std::streamoff>(page * kPageSize));
  file.read(bytes.data(), kPageSize);
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  const uint32_t sum = ComputePageChecksum(bytes.data());
  std::memcpy(bytes.data() + kPageChecksumOffset, &sum, sizeof(sum));
  file.seekp(static_cast<std::streamoff>(page * kPageSize));
  file.write(bytes.data(), kPageSize);
}

TEST(RowCodecTest, NarrowRoundTripAndFits) {
  RowCodec codec(3, ValueWidth::kOne);
  EXPECT_EQ(codec.row_bytes(), 3u);
  const std::vector<Value> rows = {0, 255, 7, 128, 1, 254};
  EXPECT_TRUE(codec.Fits(rows.data(), 2));
  std::vector<char> buf(2 * codec.row_bytes());
  codec.EncodeRows(rows.data(), 2, buf.data());
  std::vector<Value> decoded(rows.size());
  codec.DecodeRows(buf.data(), 2, decoded.data());
  EXPECT_EQ(decoded, rows);
  for (Value bad : {256, -1, 1 << 30}) {
    const std::vector<Value> row = {1, bad, 2};
    EXPECT_FALSE(codec.Fits(row.data(), 1)) << bad;
    EXPECT_TRUE(RowCodec(3).Fits(row.data(), 1)) << bad;
  }
}

TEST(RowCodecTest, NarrowestWidthComesFromTheDeclaredCardinalities) {
  EXPECT_EQ(NarrowestValueWidth(MakeSchema({256, 2}, 256)), ValueWidth::kOne);
  EXPECT_EQ(NarrowestValueWidth(MakeSchema({257, 2}, 3)), ValueWidth::kFour);
  EXPECT_EQ(NarrowestValueWidth(MakeSchema({2, 2}, 300)), ValueWidth::kFour);
}

TEST(NarrowHeapFileTest, RoundTripsThroughNextReadPageIntoAndReadAt) {
  TempDir dir;
  const std::string path = dir.path() + "/narrow.tbl";
  Schema schema = MakeSchema({256, 3, 17}, 5);
  const size_t slots = SlotsPerPage(4);  // four one-byte values a row
  ASSERT_EQ(slots, 4 * SlotsPerPage(4 * sizeof(Value)));
  const std::vector<Row> rows = RandomRows(schema, 2 * slots + 100, 31);
  IoCounters io;
  WriteNarrow(path, 4, rows, &io);
  EXPECT_EQ(io.pages_written, 3u);
  EXPECT_EQ(io.rows_written, rows.size());

  EXPECT_EQ(ReadAll(path, 4), rows);
  IoCounters read_io;
  auto reader = HeapFileReader::Open(path, 4, &read_io);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ((*reader)->width(), ValueWidth::kOne);
  EXPECT_EQ((*reader)->slots_per_page(), slots);
  EXPECT_EQ((*reader)->num_pages(), 3u);
  EXPECT_EQ((*reader)->num_rows(), rows.size());  // from the last header
  EXPECT_EQ(read_io.pages_read, 0u);

  std::vector<Row> by_page;
  RowBatch batch;
  for (uint64_t page = 0; page < (*reader)->num_pages(); ++page) {
    ASSERT_TRUE((*reader)->ReadPageInto(page, &batch).ok());
    for (size_t i = 0; i < batch.num_rows(); ++i) {
      by_page.emplace_back(batch.RowAt(i), batch.RowAt(i) + 4);
    }
  }
  EXPECT_EQ(by_page, rows);
  EXPECT_EQ(read_io.pages_read, 3u);
  EXPECT_EQ(read_io.rows_read, rows.size());

  Row row;
  for (Tid tid : {Tid{0}, Tid{slots - 1}, Tid{slots}, Tid{rows.size() - 1}}) {
    ASSERT_TRUE((*reader)->ReadAt(tid, &row).ok()) << tid;
    EXPECT_EQ(row, rows[tid]) << "tid " << tid;
  }
  EXPECT_FALSE((*reader)->ReadAt(rows.size(), &row).ok());
}

TEST(NarrowHeapFileTest, OpenForAppendContinuesAPartialNarrowPage) {
  TempDir dir;
  const std::string path = dir.path() + "/append.tbl";
  Schema schema = MakeSchema({200}, 9);
  const size_t slots = SlotsPerPage(2);
  const std::vector<Row> rows = RandomRows(schema, slots + 300, 37);
  const size_t first = slots + 100;
  WriteNarrow(path, 2, {rows.begin(), rows.begin() + first}, nullptr);

  IoCounters io;
  auto writer = HeapFileWriter::OpenForAppend(path, 2, &io);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  EXPECT_EQ((*writer)->existing_rows(), first);
  EXPECT_EQ(io.pages_read, 1u);  // the partial last page, reloaded
  for (size_t i = first; i < rows.size(); ++i) {
    ASSERT_TRUE((*writer)->Append(rows[i]).ok());
  }
  // The appender kept the file's width: it refuses a four-byte value.
  EXPECT_EQ((*writer)->Append({256, 0}).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ(ReadAll(path, 2), rows);
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_pages(), 2u);
}

TEST(NarrowHeapFileTest, OutOfRangeValuesAreRefusedNotTruncated) {
  TempDir dir;
  const std::string path = dir.path() + "/refuse.tbl";
  const std::vector<Row> rows = {{1, 2}, {255, 0}};
  auto writer = HeapFileWriter::Create(path, 2, nullptr, ValueWidth::kOne);
  ASSERT_TRUE(writer.ok());
  for (const Row& row : rows) ASSERT_TRUE((*writer)->Append(row).ok());
  for (Value bad : {256, -1}) {
    Status s = (*writer)->Append({3, bad});
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    // A bulk append with one bad value appends none of its rows.
    const std::vector<Value> bulk = {4, 4, 5, bad};
    EXPECT_EQ((*writer)->AppendRows(bulk.data(), 2).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_EQ((*writer)->rows_written(), 2u);
  ASSERT_TRUE((*writer)->Finish().ok());
  EXPECT_EQ(ReadAll(path, 2), rows);
}

TEST(NarrowHeapFileTest, WidePageInsideANarrowFileIsAnIoError) {
  TempDir dir;
  const std::string path = dir.path() + "/mixed.tbl";
  const std::vector<Row> rows(SlotsPerPage(2) + 1, Row{1, 2});
  WriteNarrow(path, 2, rows, nullptr);
  ForgeHeaderWord(path, 0, kPageVersionOffset, kHeapWideVersion);
  IoCounters io;
  auto reader = HeapFileReader::Open(path, 2, &io);  // learns from page 1
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  RowBatch batch;
  Status s = (*reader)->ReadPageInto(0, &batch);
  EXPECT_EQ(s.code(), StatusCode::kIoError) << s.ToString();
  EXPECT_NE(s.message().find("version"), std::string::npos);
  EXPECT_EQ(io.checksum_failures, 0u);
  EXPECT_TRUE((*reader)->ReadPageInto(1, &batch).ok());

  // An unknown version in the last page fails the open.
  ForgeHeaderWord(path, 1, kPageVersionOffset, 4);
  EXPECT_EQ(HeapFileReader::Open(path, 2, nullptr).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(HeapFileWriter::OpenForAppend(path, 2, nullptr).status().code(),
            StatusCode::kIoError);
}

TEST(NarrowHeapFileTest, FlippedPayloadByteIsDataLoss) {
  TempDir dir;
  const std::string path = dir.path() + "/flip.tbl";
  WriteNarrow(path, 2, {{1, 2}, {3, 4}}, nullptr);
  {
    std::fstream file(path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(kPageHeaderBytes) + 1);
    const char evil = '\x5a';
    file.write(&evil, 1);
  }
  IoCounters io;
  auto reader = HeapFileReader::Open(path, 2, &io);
  ASSERT_TRUE(reader.ok());
  Row row;
  auto more = (*reader)->Next(&row);
  ASSERT_FALSE(more.ok());
  EXPECT_EQ(more.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(io.checksum_failures, 1u);
}

TEST(NarrowHeapFileTest, RowCountAboveTheNarrowSlotCountIsAnIoError) {
  TempDir dir;
  const std::string path = dir.path() + "/count.tbl";
  const size_t slots = SlotsPerPage(2);
  WriteNarrow(path, 2, std::vector<Row>(slots + 1, Row{1, 2}), nullptr);
  // A full narrow page is legal; one row more is not, on either page.
  ForgeHeaderWord(path, 0, kPageRowCountOffset,
                  static_cast<uint32_t>(slots + 1));
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  RowBatch batch;
  EXPECT_EQ((*reader)->ReadPageInto(0, &batch).code(), StatusCode::kIoError);
  ForgeHeaderWord(path, 1, kPageRowCountOffset,
                  static_cast<uint32_t>(slots + 1));
  EXPECT_EQ(HeapFileReader::Open(path, 2, nullptr).status().code(),
            StatusCode::kIoError);
}

// ---------------------------------------------------------- InMemoryRowStore

TEST(InMemoryRowStoreTest, AppendAndRead) {
  InMemoryRowStore store(3);
  store.Append({1, 2, 3});
  store.Append({4, 5, 6});
  ASSERT_EQ(store.num_rows(), 2u);
  EXPECT_EQ(store.RowAt(1)[0], 4);
  EXPECT_EQ(store.RowAt(1)[2], 6);
}

TEST(InMemoryRowStoreTest, MemoryBytesTracksPayload) {
  InMemoryRowStore store(4);
  EXPECT_EQ(store.MemoryBytes(), 0u);
  store.Append({1, 2, 3, 4});
  EXPECT_EQ(store.MemoryBytes(), 16u);
  store.Append({1, 2, 3, 4});
  EXPECT_EQ(store.MemoryBytes(), 32u);
}

TEST(InMemoryRowStoreTest, ClearReleases) {
  InMemoryRowStore store(2);
  store.Append({1, 2});
  store.Clear();
  EXPECT_EQ(store.num_rows(), 0u);
  EXPECT_EQ(store.MemoryBytes(), 0u);
}

}  // namespace
}  // namespace sqlclass
