#include "server/server.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>

#include "common/fault_injector.h"
#include "shard/shard_map.h"
#include "storage/bitmap/bitmap_index.h"
#include "storage/sample/sample_file.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::FaultScope;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

using HitCounts = std::map<std::string, uint64_t>;

/// Crossings of every known fault point while `run` runs, each point armed
/// so that it never fires. Points never crossed are left out.
HitCounts CountFaultHits(const std::function<Status()>& run) {
  FaultScope guard;
  FaultInjector::PointConfig silent;
  silent.after = std::numeric_limits<uint64_t>::max();
  for (const std::string& point : FaultInjector::KnownPoints()) {
    FaultInjector::Global().Arm(point, silent);
  }
  const Status status = run();
  EXPECT_TRUE(status.ok()) << status.ToString();
  HitCounts hits;
  for (const std::string& point : FaultInjector::KnownPoints()) {
    const uint64_t count = FaultInjector::Global().Hits(point);
    if (count > 0) hits[point] = count;
  }
  return hits;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SqlServer>(dir_.path());
    schema_ = MakeSchema({3, 4}, 2);
    rows_ = RandomRows(schema_, 500, 21);
    ASSERT_TRUE(server_->CreateTable("t", schema_).ok());
    ASSERT_TRUE(server_->LoadRows("t", rows_).ok());
    server_->ResetCostCounters();
  }

  uint64_t CountMatching(const Expr* filter) {
    uint64_t count = 0;
    for (const Row& row : rows_) {
      auto bound = filter->Clone();
      EXPECT_TRUE(bound->Bind(schema_).ok());
      if (bound->Eval(row)) ++count;
    }
    return count;
  }

  TempDir dir_;
  std::unique_ptr<SqlServer> server_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ServerTest, TableMetadata) {
  EXPECT_TRUE(server_->HasTable("t"));
  EXPECT_FALSE(server_->HasTable("u"));
  auto rows = server_->TableRowCount("t");
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, rows_.size());
  auto schema = server_->GetSchema("t");
  ASSERT_TRUE(schema.ok());
  EXPECT_TRUE(**schema == schema_);
}

TEST_F(ServerTest, CreateDuplicateTableFails) {
  EXPECT_EQ(server_->CreateTable("t", schema_).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(ServerTest, InvalidTableNameRejected) {
  EXPECT_FALSE(server_->CreateTable("bad name!", schema_).ok());
}

TEST_F(ServerTest, CreateTableRejectsInvalidSchema) {
  EXPECT_EQ(server_->CreateTable("u", Schema()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(server_->HasTable("u"));
}

TEST_F(ServerTest, DropTableRemoves) {
  ASSERT_TRUE(server_->DropTable("t").ok());
  EXPECT_FALSE(server_->HasTable("t"));
  EXPECT_FALSE(server_->TableRowCount("t").ok());
  EXPECT_EQ(server_->DropTable("t").code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, LoaderRejectsOutOfDomainRows) {
  ASSERT_TRUE(server_->CreateTable("u", schema_).ok());
  auto loader = server_->OpenLoader("u");
  ASSERT_TRUE(loader.ok());
  EXPECT_FALSE((*loader)->Append({99, 0, 0}).ok());
  EXPECT_TRUE((*loader)->Append({1, 1, 1}).ok());
  ASSERT_TRUE((*loader)->Finish().ok());
  EXPECT_EQ(*server_->TableRowCount("u"), 1u);
}

TEST_F(ServerTest, SecondLoadRejected) {
  EXPECT_FALSE(server_->OpenLoader("t").ok());
}

TEST_F(ServerTest, ScanReturnsAllRowsInOrder) {
  auto source = server_->Scan("t");
  ASSERT_TRUE(source.ok());
  Row row;
  size_t i = 0;
  while (true) {
    auto more = (*source)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    ASSERT_LT(i, rows_.size());
    EXPECT_EQ(row, rows_[i]);
    ++i;
  }
  EXPECT_EQ(i, rows_.size());
}

TEST_F(ServerTest, CursorReturnsMultiPageTableInOrder) {
  const Schema schema = MakeSchema({4, 4, 4, 4, 4, 4, 4, 4}, 2);
  const std::vector<Row> rows = RandomRows(schema, 8000, 9);  // 36 pages
  ASSERT_TRUE(server_->CreateTable("wide", schema).ok());
  ASSERT_TRUE(server_->LoadRows("wide", rows).ok());
  auto cursor = server_->OpenCursor("wide", nullptr);
  ASSERT_TRUE(cursor.ok());
  Row row;
  size_t i = 0;
  while (*(*cursor)->Next(&row)) {
    ASSERT_LT(i, rows.size());
    ASSERT_EQ(row, rows[i]);
    ++i;
  }
  EXPECT_EQ(i, rows.size());
}

TEST_F(ServerTest, CursorAfterAppendSeesAppendedRows) {
  auto count_rows = [&]() {
    auto cursor = server_->OpenCursor("t", nullptr);
    EXPECT_TRUE(cursor.ok());
    Row row;
    uint64_t n = 0;
    while (*(*cursor)->Next(&row)) ++n;
    return n;
  };
  EXPECT_EQ(count_rows(), rows_.size());
  ASSERT_TRUE(server_->AppendRows("t", {{2, 0, 0}, {1, 3, 1}}).ok());
  EXPECT_EQ(count_rows(), rows_.size() + 2);
}

// Each Build* of a derived artifact runs its builder's BuildFromHeapFile:
// the same fault-point crossings, physical I/O and file bytes as the
// builder run on a copy of the table's heap file, charged as one scan, one
// evaluation per row and one insert per row written.
TEST_F(ServerTest, ArtifactBuildsRunTheirBuilderAndChargeOneScan) {
  const Schema schema = MakeSchema({5, 3, 4}, 2);
  const uint64_t n = 5000;  // 10 heap pages
  ASSERT_TRUE(server_->CreateTable("big", schema).ok());
  ASSERT_TRUE(server_->LoadRows("big", RandomRows(schema, n, 17)).ok());
  auto heap = server_->TableHeapPath("big");
  ASSERT_TRUE(heap.ok());
  const std::string copy_dir = dir_.path() + "/copy";
  std::filesystem::create_directories(copy_dir);
  const std::string copy = copy_dir + "/big.tbl";
  std::filesystem::copy_file(*heap, copy);

  struct Build {
    const char* name;
    std::function<Status()> server_build;
    std::function<Status(IoCounters*)> builder;
    std::string (*artifact_path)(const std::string& heap);
    uint64_t copies;
  };
  const std::vector<Build> builds = {
      {"bitmap", [&] { return server_->BuildBitmapIndex("big"); },
       [&](IoCounters* io) {
         return BitmapIndexBuilder::BuildFromHeapFile(
                    copy, {5, 3, 4, 2}, BitmapIndexPathFor(copy), io)
             .status();
       },
       &BitmapIndexPathFor, 1},
      {"sample", [&] { return server_->BuildSampleTable("big", 0.2, 5); },
       [&](IoCounters* io) {
         return SampleFileBuilder::BuildFromHeapFile(
                    copy, 4, 0.2, 5, SampleFilePathFor(copy), io)
             .status();
       },
       &SampleFilePathFor, 1},
      {"shards", [&] { return server_->BuildShardSet("big", 3); },
       [&](IoCounters* io) {
         return ShardSetWriter::BuildFromHeapFile(
                    copy, 4, 3, ShardScheme::kHashRowId, io)
             .status();
       },
       &ShardMapPathFor, 1},
      {"replicated shards",
       [&] {
         SQLCLASS_RETURN_IF_ERROR(server_->DropShardSet("big"));
         return server_->BuildShardSet("big", 3, ShardScheme::kHashRowId,
                                       /*with_replicas=*/true);
       },
       [&](IoCounters* io) {
         RemoveShardSetFiles(copy, 3);
         return ShardSetWriter::BuildFromHeapFile(
                    copy, 4, 3, ShardScheme::kHashRowId, io,
                    /*with_replicas=*/true)
             .status();
       },
       &ShardMapPathFor, 2},
  };
  for (const Build& build : builds) {
    SCOPED_TRACE(build.name);
    IoCounters builder_io;
    const HitCounts builder_hits =
        CountFaultHits([&] { return build.builder(&builder_io); });

    server_->ResetCostCounters();
    const IoCounters before = server_->io_counters();
    const HitCounts server_hits = CountFaultHits(build.server_build);
    const IoCounters& after = server_->io_counters();

    EXPECT_EQ(server_hits, builder_hits);
    EXPECT_EQ(after.pages_read - before.pages_read, builder_io.pages_read);
    EXPECT_EQ(after.pages_written - before.pages_written,
              builder_io.pages_written);
    EXPECT_EQ(FileBytes(build.artifact_path(*heap)),
              FileBytes(build.artifact_path(copy)));
    CostCounters expected;
    expected.server_scans = 1;
    expected.server_rows_evaluated = n;
    expected.index_rows_inserted = n * build.copies;
    EXPECT_EQ(server_->cost_counters().ToString(), expected.ToString());
  }
}

TEST_F(ServerTest, ExecuteCountsAndCharges) {
  auto result = server_->Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CellInt(result->rows[0][0]),
            static_cast<int64_t>(rows_.size()));
  const CostCounters& cost = server_->cost_counters();
  EXPECT_EQ(cost.server_scans, 1u);
  EXPECT_EQ(cost.server_rows_evaluated, rows_.size());
  EXPECT_EQ(cost.result_rows_returned, 1u);
}

TEST_F(ServerTest, ExecuteParseErrorSurfaces) {
  auto result = server_->Execute("SELECT FROM WHERE");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST_F(ServerTest, CursorTransfersOnlyMatchingRows) {
  auto filter = Expr::ColEq("A1", 1);
  const uint64_t expected = CountMatching(filter.get());
  auto cursor = server_->OpenCursor("t", filter.get());
  ASSERT_TRUE(cursor.ok());
  uint64_t transferred = 0;
  Row row;
  while (true) {
    auto more = (*cursor)->Next(&row);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    EXPECT_EQ(row[0], 1);
    ++transferred;
  }
  EXPECT_EQ(transferred, expected);
  const CostCounters& cost = server_->cost_counters();
  EXPECT_EQ(cost.server_rows_evaluated, rows_.size());
  EXPECT_EQ(cost.cursor_rows_transferred, expected);
  EXPECT_EQ(cost.server_scans, 1u);
}

TEST_F(ServerTest, NullFilterCursorTransfersEverything) {
  auto cursor = server_->OpenCursor("t", nullptr);
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (*(*cursor)->Next(&row)) ++n;
  EXPECT_EQ(n, rows_.size());
  EXPECT_EQ(server_->cost_counters().cursor_rows_transferred, rows_.size());
}

TEST_F(ServerTest, ShardSetChargesOneInsertPerRowWritten) {
  ASSERT_TRUE(server_->BuildShardSet("t", 4).ok());
  EXPECT_EQ(server_->cost_counters().index_rows_inserted, rows_.size());
  ASSERT_TRUE(server_->DropShardSet("t").ok());
  server_->ResetCostCounters();
  // Replicas write every row a second time, so the build costs twice.
  ASSERT_TRUE(server_->BuildShardSet("t", 4, ShardScheme::kHashRowId,
                                     /*with_replicas=*/true)
                  .ok());
  EXPECT_EQ(server_->cost_counters().index_rows_inserted, 2 * rows_.size());
  EXPECT_EQ(server_->cost_counters().server_scans, 1u);
}

TEST_F(ServerTest, CopyToTempTablePreservesFilteredRows) {
  auto filter = Expr::ColEq("A2", 2);
  const uint64_t expected = CountMatching(filter.get());
  ASSERT_TRUE(server_->CopyToTempTable("t", filter.get(), "t_sub").ok());
  EXPECT_EQ(*server_->TableRowCount("t_sub"), expected);
  EXPECT_EQ(server_->cost_counters().temp_table_rows_written, expected);

  // The copied subset matches a direct filtered scan.
  auto cursor = server_->OpenCursor("t_sub", nullptr);
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (*(*cursor)->Next(&row)) {
    EXPECT_EQ(row[1], 2);
    ++n;
  }
  EXPECT_EQ(n, expected);
}

TEST_F(ServerTest, TidListAndJoinScan) {
  auto filter = Expr::ColEq("A1", 2);
  const uint64_t expected = CountMatching(filter.get());
  auto count = server_->CreateTidList("t", filter.get(), "tids");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, expected);

  server_->ResetCostCounters();
  auto cursor = server_->ScanByTidJoin("t", "tids", nullptr);
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (*(*cursor)->Next(&row)) {
    EXPECT_EQ(row[0], 2);
    ++n;
  }
  EXPECT_EQ(n, expected);
  EXPECT_EQ(server_->cost_counters().index_probes, expected);
}

TEST_F(ServerTest, TidJoinWithResidualFilter) {
  auto filter = Expr::ColEq("A1", 2);
  ASSERT_TRUE(server_->CreateTidList("t", filter.get(), "tids2").ok());
  auto residual = Expr::ColEq("A2", 1);
  uint64_t expected = 0;
  for (const Row& row : rows_) {
    if (row[0] == 2 && row[1] == 1) ++expected;
  }
  auto cursor = server_->ScanByTidJoin("t", "tids2", residual.get());
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (*(*cursor)->Next(&row)) ++n;
  EXPECT_EQ(n, expected);
}

TEST_F(ServerTest, DuplicateTidListFails) {
  auto filter = Expr::ColEq("A1", 0);
  ASSERT_TRUE(server_->CreateTidList("t", filter.get(), "dup").ok());
  EXPECT_FALSE(server_->CreateTidList("t", filter.get(), "dup").ok());
}

TEST_F(ServerTest, KeysetCursorRescanAndRelease) {
  auto filter = Expr::ColEq("A1", 1);
  const uint64_t expected = CountMatching(filter.get());
  auto keyset = server_->CreateKeyset("t", filter.get());
  ASSERT_TRUE(keyset.ok());

  // First pass: whole keyset.
  auto cursor = server_->ScanKeyset(*keyset, nullptr);
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (*(*cursor)->Next(&row)) ++n;
  EXPECT_EQ(n, expected);

  // Second pass with the stored-procedure filter narrows further.
  auto proc = Expr::ColEq("A2", 0);
  auto cursor2 = server_->ScanKeyset(*keyset, proc.get());
  ASSERT_TRUE(cursor2.ok());
  uint64_t m = 0;
  while (*(*cursor2)->Next(&row)) {
    EXPECT_EQ(row[1], 0);
    ++m;
  }
  EXPECT_LE(m, n);

  ASSERT_TRUE(server_->ReleaseKeyset(*keyset).ok());
  EXPECT_FALSE(server_->ScanKeyset(*keyset, nullptr).ok());
  EXPECT_FALSE(server_->ReleaseKeyset(*keyset).ok());
}

TEST_F(ServerTest, SimulatedSecondsGrowWithWork) {
  EXPECT_DOUBLE_EQ(server_->SimulatedSeconds(), 0.0);
  ASSERT_TRUE(server_->Execute("SELECT COUNT(*) FROM t").ok());
  const double after_one = server_->SimulatedSeconds();
  EXPECT_GT(after_one, 0.0);
  ASSERT_TRUE(server_->Execute("SELECT COUNT(*) FROM t").ok());
  EXPECT_GT(server_->SimulatedSeconds(), after_one);
}

TEST_F(ServerTest, CursorRowCostsDominateEvaluation) {
  // Consistency of the calibrated model: transferring a row must cost much
  // more than evaluating one at the server (the paper's core premise).
  CostModel model;
  CostCounters transfer;
  transfer.cursor_rows_transferred = 1000;
  CostCounters evaluate;
  evaluate.server_rows_evaluated = 1000;
  EXPECT_GT(model.SimulatedSeconds(transfer),
            5 * model.SimulatedSeconds(evaluate));
}

TEST_F(ServerTest, CostCountersAddAndToString) {
  CostCounters a;
  a.server_scans = 1;
  a.mw_cc_updates = 5;
  CostCounters b;
  b.server_scans = 2;
  b.index_probes = 3;
  a.Add(b);
  EXPECT_EQ(a.server_scans, 3u);
  EXPECT_EQ(a.index_probes, 3u);
  EXPECT_EQ(a.mw_cc_updates, 5u);
  EXPECT_NE(a.ToString().find("server_scans=3"), std::string::npos);
  a.Reset();
  EXPECT_EQ(a.server_scans, 0u);
}

TEST_F(ServerTest, ExecuteCcQueryMatchesBruteForce) {
  // End-to-end through parser + executor on real storage.
  auto result = server_->Execute(
      "SELECT 'A1' AS attr_name, A1 AS value, class, COUNT(*) FROM t "
      "GROUP BY class, A1");
  ASSERT_TRUE(result.ok());
  std::map<std::pair<Value, Value>, int64_t> expected;
  for (const Row& row : rows_) ++expected[{row[0], row[2]}];
  ASSERT_EQ(result->num_rows(), expected.size());
  for (const auto& row : result->rows) {
    EXPECT_EQ(CellInt(row[3]),
              expected.at({static_cast<Value>(CellInt(row[1])),
                           static_cast<Value>(CellInt(row[2]))}));
  }
}

}  // namespace
}  // namespace sqlclass
