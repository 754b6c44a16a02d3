#include "middleware/staging.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "middleware/batch_matcher.h"
#include "middleware/parallel_scan.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::TempDir;

Status AppendRow(StagingManager* staging, LocationKind kind, uint64_t id,
                 const Row& row) {
  return staging->Append(DataLocation{kind, id}, row.data(), 1);
}

// Every row of a sealed staged file, read the way a counting scan reads it.
std::vector<Row> ReadStagedFile(const StagingManager& staging, uint64_t id,
                                int num_columns) {
  std::vector<Row> rows;
  auto path = staging.FileStorePath(id);
  EXPECT_TRUE(path.ok()) << path.status().ToString();
  if (!path.ok()) return rows;
  auto reader = HeapFileReader::Open(*path, num_columns, nullptr);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return rows;
  Row row;
  while (true) {
    auto more = (*reader)->Next(&row);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) return rows;
    rows.push_back(row);
  }
}

// The version word of the first page of the file at `path`: 2 for four-byte
// values, 3 for one-byte values.
uint32_t FirstPageVersion(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char header[kPageHeaderBytes] = {};
  in.read(header, sizeof(header));
  uint32_t version = 0;
  std::memcpy(&version, header + kPageVersionOffset, sizeof(version));
  return version;
}

class StagingTest : public ::testing::Test {
 protected:
  // Three columns of at most 256 values: staged files are one byte a value.
  StagingTest() : staging_(dir_.path(), MakeSchema({16, 256}, 7), &cost_) {}

  TempDir dir_;
  CostCounters cost_;
  StagingManager staging_;
};

TEST_F(StagingTest, FileStoreRoundTrip) {
  auto id = staging_.BeginFileStore();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kFile, *id, {1, 2, 3}).ok());
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kFile, *id, {4, 5, 6}).ok());
  ASSERT_TRUE(staging_.FinishFileStore(*id).ok());
  EXPECT_EQ(cost_.mw_file_rows_written, 2u);
  EXPECT_EQ(ReadStagedFile(staging_, *id, 3),
            (std::vector<Row>{{1, 2, 3}, {4, 5, 6}}));

  // A counting scan of the store charges one middleware file read per row.
  const std::vector<const Expr*> predicates = {nullptr};
  BatchMatcher matcher(predicates);
  const std::vector<int> attrs = {0, 1};
  ParallelScanOptions options;
  options.class_column = 2;
  options.num_classes = 7;
  options.matcher = &matcher;
  options.node_attrs = {&attrs};
  options.charge.mw_file_read = true;
  auto scan = ParallelCountScan::OverHeapFile(
      nullptr, *staging_.FileStorePath(*id), 3, options, &cost_, nullptr);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->ccs[0].TotalRows(), 2);
  EXPECT_EQ(cost_.mw_file_rows_read, 2u);
}

TEST_F(StagingTest, BulkAppendMatchesRowByRowAppend) {
  const std::vector<Value> rows = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto bulk = staging_.BeginFileStore();
  auto single = staging_.BeginFileStore();
  ASSERT_TRUE(bulk.ok());
  ASSERT_TRUE(single.ok());
  ASSERT_TRUE(
      staging_.Append(DataLocation{LocationKind::kFile, *bulk}, rows.data(), 3)
          .ok());
  for (size_t r = 0; r < 3; ++r) {
    ASSERT_TRUE(staging_
                    .Append(DataLocation{LocationKind::kFile, *single},
                            rows.data() + 3 * r, 1)
                    .ok());
  }
  ASSERT_TRUE(staging_.FinishFileStore(*bulk).ok());
  ASSERT_TRUE(staging_.FinishFileStore(*single).ok());
  EXPECT_EQ(cost_.mw_file_rows_written, 6u);
  EXPECT_EQ(staging_.file_bytes_used(), 6 * staging_.RowBytes());
  EXPECT_EQ(*staging_.StoreRows(DataLocation{LocationKind::kFile, *bulk}), 3u);
  EXPECT_EQ(ReadStagedFile(staging_, *bulk, 3),
            ReadStagedFile(staging_, *single, 3));

  uint64_t mid = staging_.BeginMemoryStore();
  ASSERT_TRUE(
      staging_.Append(DataLocation{LocationKind::kMemory, mid}, rows.data(), 3)
          .ok());
  auto store = staging_.GetMemoryStore(mid);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ((*store)->num_rows(), 3u);
  EXPECT_EQ((*store)->RowAt(2)[0], 7);
  EXPECT_EQ(staging_.memory_bytes_used(), 3 * staging_.RowBytes());
}

TEST_F(StagingTest, MemoryStoreRoundTrip) {
  uint64_t id = staging_.BeginMemoryStore();
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kMemory, id, {7, 8, 9}).ok());
  auto store = staging_.GetMemoryStore(id);
  ASSERT_TRUE(store.ok());
  ASSERT_EQ((*store)->num_rows(), 1u);
  EXPECT_EQ((*store)->RowAt(0)[2], 9);
}

TEST_F(StagingTest, ByteAccountingTracksBothTiers) {
  EXPECT_EQ(staging_.RowBytes(), 12u);
  auto fid = staging_.BeginFileStore();
  ASSERT_TRUE(fid.ok());
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kFile, *fid, {1, 2, 3}).ok());
  EXPECT_EQ(staging_.file_bytes_used(), 12u);
  uint64_t mid = staging_.BeginMemoryStore();
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kMemory, mid, {1, 2, 3}).ok());
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kMemory, mid, {1, 2, 3}).ok());
  EXPECT_EQ(staging_.memory_bytes_used(), 24u);
  ASSERT_TRUE(staging_.FinishFileStore(*fid).ok());
  ASSERT_TRUE(staging_.Free(DataLocation{LocationKind::kFile, *fid}).ok());
  EXPECT_EQ(staging_.file_bytes_used(), 0u);
  ASSERT_TRUE(staging_.Free(DataLocation{LocationKind::kMemory, mid}).ok());
  EXPECT_EQ(staging_.memory_bytes_used(), 0u);
}

// A schema whose columns all declare at most 256 values stages one-byte
// pages; one column of 257 values makes it stage four-byte pages. Both read
// back the same rows and account the same logical bytes.
TEST(StagingWidthTest, StagesAtTheSchemasNarrowestWidth) {
  const std::vector<Value> rows = {0, 255, 3, 7, 0, 1, 255, 128, 2};
  std::vector<std::vector<Row>> read_back;
  for (const auto& [cards, version] :
       {std::pair{std::vector<int>{256, 16}, kHeapNarrowVersion},
        std::pair{std::vector<int>{257, 16}, kHeapWideVersion}}) {
    SCOPED_TRACE(cards[0]);
    TempDir dir;
    CostCounters cost;
    StagingManager staging(dir.path(), MakeSchema(cards, 3), &cost);
    auto id = staging.BeginFileStore();
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    ASSERT_TRUE(
        staging.Append(DataLocation{LocationKind::kFile, *id}, rows.data(), 3)
            .ok());
    ASSERT_TRUE(staging.FinishFileStore(*id).ok());
    EXPECT_EQ(FirstPageVersion(*staging.FileStorePath(*id)), version);
    EXPECT_EQ(staging.RowBytes(), 12u);
    EXPECT_EQ(staging.file_bytes_used(), 36u);
    EXPECT_EQ(cost.mw_file_rows_written, 3u);
    EXPECT_EQ(staging.io_counters().pages_written, 1u);
    read_back.push_back(ReadStagedFile(staging, *id, 3));
  }
  const std::vector<Row> expected = {{0, 255, 3}, {7, 0, 1}, {255, 128, 2}};
  EXPECT_EQ(read_back[0], expected);
  EXPECT_EQ(read_back[1], expected);
}

TEST_F(StagingTest, StoreRowsQueriesBothKinds) {
  auto fid = staging_.BeginFileStore();
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kFile, *fid, {1, 2, 3}).ok());
  ASSERT_TRUE(staging_.FinishFileStore(*fid).ok());
  uint64_t mid = staging_.BeginMemoryStore();
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kMemory, mid, {1, 2, 3}).ok());
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kMemory, mid, {1, 2, 3}).ok());
  EXPECT_EQ(*staging_.StoreRows(DataLocation{LocationKind::kFile, *fid}), 1u);
  EXPECT_EQ(*staging_.StoreRows(DataLocation{LocationKind::kMemory, mid}),
            2u);
  EXPECT_FALSE(
      staging_.StoreRows(DataLocation{LocationKind::kServer, 0}).ok());
  EXPECT_FALSE(
      staging_.StoreRows(DataLocation{LocationKind::kFile, 999}).ok());
}

TEST_F(StagingTest, FreeDeletesFileFromDisk) {
  auto fid = staging_.BeginFileStore();
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kFile, *fid, {1, 2, 3}).ok());
  ASSERT_TRUE(staging_.FinishFileStore(*fid).ok());
  const std::string path =
      dir_.path() + "/mwstage_" + std::to_string(*fid) + ".dat";
  EXPECT_TRUE(std::filesystem::exists(path));
  ASSERT_TRUE(staging_.Free(DataLocation{LocationKind::kFile, *fid}).ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(staging_.FileStorePath(*fid).ok());
}

TEST_F(StagingTest, OpenUnfinishedFileFails) {
  auto fid = staging_.BeginFileStore();
  ASSERT_TRUE(AppendRow(&staging_, LocationKind::kFile, *fid, {1, 2, 3}).ok());
  EXPECT_FALSE(staging_.FileStorePath(*fid).ok());
}

TEST_F(StagingTest, AppendToUnknownStoreFails) {
  EXPECT_FALSE(AppendRow(&staging_, LocationKind::kFile, 999, {1, 2, 3}).ok());
  EXPECT_FALSE(
      AppendRow(&staging_, LocationKind::kMemory, 999, {1, 2, 3}).ok());
  EXPECT_FALSE(staging_.FinishFileStore(999).ok());
  EXPECT_FALSE(staging_.GetMemoryStore(999).ok());
}

TEST_F(StagingTest, LiveStoresListsBothTiers) {
  EXPECT_TRUE(staging_.LiveStores().empty());
  auto fid = staging_.BeginFileStore();
  uint64_t mid = staging_.BeginMemoryStore();
  auto stores = staging_.LiveStores();
  ASSERT_EQ(stores.size(), 2u);
  ASSERT_TRUE(staging_.FinishFileStore(*fid).ok());
  ASSERT_TRUE(staging_.Free(DataLocation{LocationKind::kMemory, mid}).ok());
  EXPECT_EQ(staging_.LiveStores().size(), 1u);
}

TEST_F(StagingTest, CreationCountersTrack) {
  EXPECT_EQ(staging_.files_created(), 0);
  auto fid = staging_.BeginFileStore();
  (void)fid;
  staging_.BeginMemoryStore();
  staging_.BeginMemoryStore();
  EXPECT_EQ(staging_.files_created(), 1);
  EXPECT_EQ(staging_.memory_stores_created(), 2);
}

TEST_F(StagingTest, FreeingUnknownStoreFails) {
  EXPECT_FALSE(staging_.Free(DataLocation{LocationKind::kFile, 5}).ok());
  EXPECT_FALSE(staging_.Free(DataLocation{LocationKind::kMemory, 5}).ok());
  EXPECT_FALSE(staging_.Free(DataLocation{LocationKind::kServer, 0}).ok());
}

TEST_F(StagingTest, DestructorCleansUpFiles) {
  std::string path;
  {
    TempDir dir;
    CostCounters cost;
    StagingManager staging(dir.path(), MakeSchema({4}, 2), &cost);
    auto fid = staging.BeginFileStore();
    ASSERT_TRUE(AppendRow(&staging, LocationKind::kFile, *fid, {1, 2}).ok());
    ASSERT_TRUE(staging.FinishFileStore(*fid).ok());
    path = dir.path() + "/mwstage_" + std::to_string(*fid) + ".dat";
    EXPECT_TRUE(std::filesystem::exists(path));
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST_F(StagingTest, ManyStoresCoexist) {
  std::vector<uint64_t> fids;
  for (int i = 0; i < 10; ++i) {
    auto fid = staging_.BeginFileStore();
    ASSERT_TRUE(fid.ok());
    for (int r = 0; r <= i; ++r) {
      ASSERT_TRUE(
          AppendRow(&staging_, LocationKind::kFile, *fid, {r, r, r}).ok());
    }
    ASSERT_TRUE(staging_.FinishFileStore(*fid).ok());
    fids.push_back(*fid);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(
        *staging_.StoreRows(DataLocation{LocationKind::kFile, fids[i]}),
        static_cast<uint64_t>(i + 1));
  }
}

}  // namespace
}  // namespace sqlclass
