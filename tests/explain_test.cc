#include <gtest/gtest.h>

#include "datagen/gaussian.h"
#include "mining/discretize.h"
#include "server/server.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SqlServer>(dir_.path());
    schema_ = MakeSchema({8, 4}, 2);
    rows_ = RandomRows(schema_, 1000, 41);
    ASSERT_TRUE(server_->CreateTable("t", schema_).ok());
    ASSERT_TRUE(server_->LoadRows("t", rows_).ok());
  }

  TempDir dir_;
  std::unique_ptr<SqlServer> server_;
  Schema schema_;
  std::vector<Row> rows_;
};

TEST_F(ExplainTest, SeqScanByDefault) {
  auto plan = server_->Explain("SELECT * FROM t WHERE A1 = 1");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("seq scan on t (1000 rows)"), std::string::npos);
  EXPECT_NE(plan->find("filter A1 = 1"), std::string::npos);
  EXPECT_EQ(plan->find("index scan"), std::string::npos);
}

TEST_F(ExplainTest, ReportsTheScanExecuteRuns) {
  const std::string sql = "SELECT * FROM t WHERE A1 = 1";
  auto plan = server_->Explain(sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("seq scan on t (1000 rows)"), std::string::npos);
  server_->ResetCostCounters();
  ASSERT_TRUE(server_->Execute(sql).ok());
  EXPECT_EQ(server_->cost_counters().server_scans, 1u);
  EXPECT_EQ(server_->cost_counters().server_rows_evaluated, 1000u);
  EXPECT_EQ(server_->cost_counters().index_probes, 0u);
}

TEST_F(ExplainTest, UnionGroupOrderLimitAllShown) {
  auto plan = server_->Explain(
      "SELECT A1, COUNT(*) FROM t GROUP BY A1 UNION ALL "
      "SELECT A2, COUNT(*) FROM t GROUP BY A2 ORDER BY count DESC LIMIT 3");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("branch 1"), std::string::npos);
  EXPECT_NE(plan->find("branch 2"), std::string::npos);
  EXPECT_NE(plan->find("group by A1"), std::string::npos);
  EXPECT_NE(plan->find("sort: count desc"), std::string::npos);
  EXPECT_NE(plan->find("limit: 3"), std::string::npos);
}

TEST_F(ExplainTest, ExplainChargesNothing) {
  server_->ResetCostCounters();
  ASSERT_TRUE(server_->Explain("SELECT * FROM t WHERE A1 = 1").ok());
  EXPECT_EQ(server_->cost_counters().server_scans, 0u);
  EXPECT_EQ(server_->cost_counters().server_rows_evaluated, 0u);
}

TEST_F(ExplainTest, NonQueriesRejected) {
  EXPECT_FALSE(server_->Explain("DROP TABLE t").ok());
  EXPECT_FALSE(server_->Explain("INSERT INTO t VALUES (1, 1, 1)").ok());
  EXPECT_FALSE(server_->Explain("SELECT * FROM missing").ok());
}

// EXPLAIN rejects what Execute rejects, with the same status code.
void ExpectExplainRejectsLikeExecute(SqlServer* server,
                                     const std::string& sql) {
  auto executed = server->Execute(sql);
  ASSERT_FALSE(executed.ok());
  auto plan = server->Explain(sql);
  ASSERT_FALSE(plan.ok()) << *plan;
  EXPECT_EQ(plan.status().code(), executed.status().code())
      << plan.status().ToString() << " vs " << executed.status().ToString();
}

TEST_F(ExplainTest, UnknownWhereColumnRejectedLikeExecute) {
  ExpectExplainRejectsLikeExecute(server_.get(),
                                  "SELECT * FROM t WHERE nosuch = 1");
}

TEST_F(ExplainTest, UnknownGroupByColumnRejectedLikeExecute) {
  ExpectExplainRejectsLikeExecute(
      server_.get(), "SELECT nosuch, COUNT(*) FROM t GROUP BY nosuch");
}

TEST_F(ExplainTest, UnknownOrderByColumnRejectedLikeExecute) {
  ExpectExplainRejectsLikeExecute(server_.get(),
                                  "SELECT A1 FROM t ORDER BY nosuch");
}

TEST_F(ExplainTest, UnionWidthMismatchRejectedLikeExecute) {
  ExpectExplainRejectsLikeExecute(
      server_.get(), "SELECT A1 FROM t UNION ALL SELECT A1, A2 FROM t");
}

// --------------------------- continuous Gaussian + discretizer pipeline

TEST(GaussianContinuousTest, MatchesDiscretizedStream) {
  GaussianMixtureParams params;
  params.dimensions = 5;
  params.num_classes = 2;
  params.samples_per_class = 50;
  params.seed = 77;
  auto dataset = GaussianMixtureDataset::Create(params);
  ASSERT_TRUE(dataset.ok());

  std::vector<Row> discretized;
  ASSERT_TRUE((*dataset)->Generate(CollectInto(&discretized)).ok());

  std::vector<std::vector<double>> continuous;
  std::vector<Value> labels;
  ASSERT_TRUE((*dataset)
                  ->GenerateContinuous(
                      [&](const std::vector<double>& values, Value label) {
                        continuous.push_back(values);
                        labels.push_back(label);
                        return Status::OK();
                      })
                  .ok());
  ASSERT_EQ(continuous.size(), discretized.size());
  for (size_t i = 0; i < continuous.size(); ++i) {
    for (int d = 0; d < params.dimensions; ++d) {
      EXPECT_EQ((*dataset)->Discretize(continuous[i][d]), discretized[i][d]);
    }
    EXPECT_EQ(labels[i],
              discretized[i][(*dataset)->schema().class_column()]);
  }
}

TEST(GaussianContinuousTest, EntropyMdlFindsInformativeCutsPerDimension) {
  GaussianMixtureParams params;
  params.dimensions = 3;
  params.num_classes = 2;
  params.samples_per_class = 400;
  params.seed = 5;
  auto dataset = GaussianMixtureDataset::Create(params);
  ASSERT_TRUE(dataset.ok());

  std::vector<std::vector<double>> per_dim(params.dimensions);
  std::vector<Value> labels;
  ASSERT_TRUE((*dataset)
                  ->GenerateContinuous(
                      [&](const std::vector<double>& values, Value label) {
                        for (int d = 0; d < params.dimensions; ++d) {
                          per_dim[d].push_back(values[d]);
                        }
                        labels.push_back(label);
                        return Status::OK();
                      })
                  .ok());
  // Means are far apart with high probability in at least one dimension;
  // supervised discretization must find at least one informative cut
  // somewhere.
  int dims_with_cuts = 0;
  for (int d = 0; d < params.dimensions; ++d) {
    auto discretizer = Discretizer::EntropyMdl(per_dim[d], labels, 2);
    ASSERT_TRUE(discretizer.ok());
    if (discretizer->num_buckets() > 1) ++dims_with_cuts;
  }
  EXPECT_GE(dims_with_cuts, 1);
}

}  // namespace
}  // namespace sqlclass
