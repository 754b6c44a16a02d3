#include <gtest/gtest.h>

#include "server/server.h"
#include "sql/parser.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

class ServerIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SqlServer>(dir_.path());
    schema_ = MakeSchema({8, 4}, 2);
    rows_ = RandomRows(schema_, 2000, 61);
    ASSERT_TRUE(server_->CreateTable("t", schema_).ok());
    ASSERT_TRUE(server_->LoadRows("t", rows_).ok());
    server_->ResetCostCounters();
  }

  uint64_t CountWhere(const std::function<bool(const Row&)>& fn) {
    uint64_t n = 0;
    for (const Row& row : rows_) {
      if (fn(row)) ++n;
    }
    return n;
  }

  uint64_t Drain(ServerCursor* cursor) {
    Row row;
    uint64_t n = 0;
    while (*cursor->Next(&row)) ++n;
    return n;
  }

  TempDir dir_;
  std::unique_ptr<SqlServer> server_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ServerIndexTest, CreateAndDrop) {
  EXPECT_FALSE(server_->HasIndex("t", "A1"));
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  EXPECT_TRUE(server_->HasIndex("t", "A1"));
  EXPECT_EQ(server_->CreateIndex("t", "A1").code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(server_->DropIndex("t", "A1").ok());
  EXPECT_FALSE(server_->HasIndex("t", "A1"));
  EXPECT_EQ(server_->DropIndex("t", "A1").code(), StatusCode::kNotFound);
}

TEST_F(ServerIndexTest, CreateIndexChargesBuildCost) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  EXPECT_EQ(server_->cost_counters().index_rows_inserted, rows_.size());
  EXPECT_EQ(server_->cost_counters().server_scans, 1u);
}

TEST_F(ServerIndexTest, ShardSetChargesOneInsertPerRowWritten) {
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

TEST_F(ServerIndexTest, UnknownColumnOrTableRejected) {
  EXPECT_FALSE(server_->CreateIndex("t", "nope").ok());
  EXPECT_FALSE(server_->CreateIndex("nope", "A1").ok());
}

TEST_F(ServerIndexTest, ScanViaIndexReturnsExactlyMatchingRows) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  const uint64_t expected = CountWhere([](const Row& r) { return r[0] == 3; });
  auto cursor = server_->ScanViaIndex("t", "A1", 3, nullptr);
  ASSERT_TRUE(cursor.ok());
  Row row;
  uint64_t n = 0;
  while (*(*cursor)->Next(&row)) {
    EXPECT_EQ(row[0], 3);
    ++n;
  }
  EXPECT_EQ(n, expected);
}

TEST_F(ServerIndexTest, ScanViaIndexWithResidualFilter) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  auto residual = ParsePredicate("A1 = 3 AND A2 <> 0");
  ASSERT_TRUE(residual.ok());
  const uint64_t expected =
      CountWhere([](const Row& r) { return r[0] == 3 && r[1] != 0; });
  auto cursor = server_->ScanViaIndex("t", "A1", 3, residual->get());
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(Drain(cursor->get()), expected);
}

TEST_F(ServerIndexTest, ScanViaIndexProbesOnlyPostings) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  server_->ResetCostCounters();
  const uint64_t postings =
      CountWhere([](const Row& r) { return r[0] == 5; });
  auto cursor = server_->ScanViaIndex("t", "A1", 5, nullptr);
  ASSERT_TRUE(cursor.ok());
  Drain(cursor->get());
  EXPECT_EQ(server_->cost_counters().index_probes, postings);
  EXPECT_EQ(server_->cost_counters().server_rows_evaluated, 0u);
}

TEST_F(ServerIndexTest, MissingValueYieldsEmptyCursor) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  auto cursor = server_->ScanViaIndex("t", "A1", 99, nullptr);
  ASSERT_TRUE(cursor.ok());
  EXPECT_EQ(Drain(cursor->get()), 0u);
}

TEST_F(ServerIndexTest, AnalyzeBuildsExactHistograms) {
  ASSERT_TRUE(server_->AnalyzeTable("t").ok());
  auto stats = server_->GetStats("t");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ((*stats)->num_rows(), rows_.size());
  // Histogram of A2 matches a manual count.
  std::vector<int64_t> expected(4, 0);
  for (const Row& row : rows_) ++expected[row[1]];
  EXPECT_EQ((*stats)->column(1).value_counts, expected);
  EXPECT_EQ((*stats)->column(1).distinct_values, 4);
}

TEST_F(ServerIndexTest, StatsBeforeAnalyzeIsNotFound) {
  EXPECT_EQ(server_->GetStats("t").status().code(), StatusCode::kNotFound);
}

TEST_F(ServerIndexTest, SelectivityEstimates) {
  ASSERT_TRUE(server_->AnalyzeTable("t").ok());
  auto stats = server_->GetStats("t");
  ASSERT_TRUE(stats.ok());
  auto eq = ParsePredicate("A1 = 2");
  ASSERT_TRUE(eq.ok());
  const double eq_sel = (*stats)->EstimateSelectivity(**eq);
  EXPECT_NEAR(eq_sel, 1.0 / 8.0, 0.05);  // uniform data
  auto ne = ParsePredicate("A1 <> 2");
  EXPECT_NEAR((*stats)->EstimateSelectivity(**ne), 1.0 - eq_sel, 1e-9);
  auto conj = ParsePredicate("A1 = 2 AND A2 = 1");
  EXPECT_NEAR((*stats)->EstimateSelectivity(**conj), eq_sel * 0.25, 0.02);
  auto disj = ParsePredicate("A1 = 2 OR A1 = 3");
  EXPECT_GT((*stats)->EstimateSelectivity(**disj), eq_sel);
  auto everything = ParsePredicate("TRUE");
  EXPECT_DOUBLE_EQ((*stats)->EstimateSelectivity(**everything), 1.0);
}

TEST_F(ServerIndexTest, AutoCursorUsesIndexWhenSelective) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  ASSERT_TRUE(server_->AnalyzeTable("t").ok());
  server_->ResetCostCounters();
  auto filter = ParsePredicate("A1 = 1 AND A2 = 2");
  auto cursor = server_->OpenCursorAuto("t", filter->get());
  ASSERT_TRUE(cursor.ok());
  const uint64_t expected =
      CountWhere([](const Row& r) { return r[0] == 1 && r[1] == 2; });
  EXPECT_EQ(Drain(cursor->get()), expected);
  // Index path: probes charged, no sequential evaluation.
  EXPECT_GT(server_->cost_counters().index_probes, 0u);
  EXPECT_EQ(server_->cost_counters().server_rows_evaluated, 0u);
}

TEST_F(ServerIndexTest, AutoCursorFallsBackWithoutIndex) {
  ASSERT_TRUE(server_->AnalyzeTable("t").ok());
  server_->ResetCostCounters();
  auto filter = ParsePredicate("A1 = 1");
  auto cursor = server_->OpenCursorAuto("t", filter->get());
  ASSERT_TRUE(cursor.ok());
  Drain(cursor->get());
  EXPECT_EQ(server_->cost_counters().index_probes, 0u);
  EXPECT_EQ(server_->cost_counters().server_rows_evaluated, rows_.size());
}

TEST_F(ServerIndexTest, AutoCursorFallsBackWhenNotSelective) {
  // A2 has only 4 values => selectivity 0.25 >= threshold 0.2.
  ASSERT_TRUE(server_->CreateIndex("t", "A2").ok());
  ASSERT_TRUE(server_->AnalyzeTable("t").ok());
  server_->ResetCostCounters();
  auto filter = ParsePredicate("A2 = 1");
  auto cursor = server_->OpenCursorAuto("t", filter->get());
  ASSERT_TRUE(cursor.ok());
  Drain(cursor->get());
  EXPECT_EQ(server_->cost_counters().index_probes, 0u);
}

TEST_F(ServerIndexTest, AutoCursorWithoutStatsUsesSchemaCardinality) {
  // No ANALYZE: A1 has 8 values -> 1/8 = 0.125 < 0.2 => index used.
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  server_->ResetCostCounters();
  auto filter = ParsePredicate("A1 = 1");
  auto cursor = server_->OpenCursorAuto("t", filter->get());
  ASSERT_TRUE(cursor.ok());
  Drain(cursor->get());
  EXPECT_GT(server_->cost_counters().index_probes, 0u);
}

TEST_F(ServerIndexTest, AutoCursorIgnoresOrFilters) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  server_->ResetCostCounters();
  auto filter = ParsePredicate("A1 = 1 OR A2 = 2");
  auto cursor = server_->OpenCursorAuto("t", filter->get());
  ASSERT_TRUE(cursor.ok());
  Drain(cursor->get());
  EXPECT_EQ(server_->cost_counters().index_probes, 0u);  // no usable conjunct
}

TEST_F(ServerIndexTest, IndexAndSeqScanAgreeOnRandomPredicates) {
  ASSERT_TRUE(server_->CreateIndex("t", "A1").ok());
  for (Value v = 0; v < 8; ++v) {
    auto filter = Expr::ColEq("A1", v);
    auto via_index = server_->ScanViaIndex("t", "A1", v, filter.get());
    auto via_scan = server_->OpenCursor("t", filter.get());
    ASSERT_TRUE(via_index.ok());
    ASSERT_TRUE(via_scan.ok());
    EXPECT_EQ(Drain(via_index->get()), Drain(via_scan->get())) << "v=" << v;
  }
}

}  // namespace
}  // namespace sqlclass
