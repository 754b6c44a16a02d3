// BatchExecutor is the one counting pass behind both entry points: the
// staging middleware (one client's frontier) and the concurrent service
// (cross-session shared scans). These tests pin that down from the outside:
// the same root CC request through either entry point, on every exact path,
// yields the same CC table at the same simulated cost.

#include "middleware/batch_executor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "middleware/middleware.h"
#include "mining/naive_bayes.h"
#include "service/service.h"
#include "storage/sample/sample_file.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::BruteForceCc;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

enum class CountPath { kSerialRow, kParallelRow, kBitmap, kShards };

std::string PathName(const ::testing::TestParamInfo<CountPath>& info) {
  switch (info.param) {
    case CountPath::kSerialRow:
      return "SerialRow";
    case CountPath::kParallelRow:
      return "ParallelRow";
    case CountPath::kBitmap:
      return "Bitmap";
    case CountPath::kShards:
      return "TwoShardsInProcess";
  }
  return "Unknown";
}

/// The counting knobs that pin a root request to `path`.
void ConfigureFor(CountPath path, CountingConfig* config) {
  config->use_bitmap_index = path == CountPath::kBitmap;
  config->parallel_scan_threads =
      path == CountPath::kParallelRow || path == CountPath::kShards ? 2 : 1;
  config->parallel_scan_min_rows = 1;
  config->sharding.enable = path == CountPath::kShards;
  config->sharding.min_node_rows = 1;
  config->sharding.transport = ShardTransportKind::kInProcess;
}

class EntryPointEquivalenceTest : public ::testing::TestWithParam<CountPath> {
 protected:
  void SetUp() override {
    schema_ = MakeSchema({4, 3, 5, 6}, 3);
    rows_ = RandomRows(schema_, 5000, /*seed=*/91);
  }

  Schema schema_;
  std::vector<Row> rows_;
};

TEST_P(EntryPointEquivalenceTest, MiddlewareAndServiceCountTheRootAlike) {
  const CountPath path = GetParam();
  TempDir dir;
  ServiceConfig service_config;
  service_config.worker_threads = 1;
  ConfigureFor(path, &service_config);
  auto service = ClassificationService::Create(dir.path(), service_config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->CreateAndLoadTable("data", schema_, rows_).ok());
  SqlServer* server = (*service)->server();
  Mutex* server_mu = (*service)->server_mutex();

  // The middleware leg runs over the service's own server, so both legs
  // read the same heap file, bitmap index and shard set.
  MiddlewareConfig mw_config;
  mw_config.staging_dir = dir.path();
  mw_config.enable_file_staging = false;
  mw_config.enable_memory_staging = false;
  ConfigureFor(path, &mw_config);
  CcTable mw_cc(3);
  CostCounters mw_delta;
  {
    MutexLock lock(*server_mu);
    if (path == CountPath::kBitmap) {
      ASSERT_TRUE(server->BuildBitmapIndex("data").ok());
    }
    if (path == CountPath::kShards) {
      ASSERT_TRUE(server->BuildShardSet("data", 2).ok());
    }
    auto middleware = ClassificationMiddleware::Create(server, "data",
                                                       mw_config);
    ASSERT_TRUE(middleware.ok()) << middleware.status().ToString();
    CcRequest root;
    root.node_id = 0;
    root.parent_id = -1;
    root.predicate = Expr::True();
    root.active_attrs = schema_.PredictorColumns();
    const CostCounters before = server->cost_counters();
    ASSERT_TRUE((*middleware)->QueueRequest(std::move(root)).ok());
    auto results = (*middleware)->FulfillSome();
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    ASSERT_EQ(results->size(), 1u);
    mw_delta = CostCounters::Delta(server->cost_counters(), before);
    mw_cc = std::move((*results)[0].cc);

    const ClassificationMiddleware::BatchTrace& batch =
        (*middleware)->trace().at(0);
    EXPECT_EQ(batch.served_from_bitmap, path == CountPath::kBitmap);
    EXPECT_EQ(batch.served_from_shards, path == CountPath::kShards);
  }
  EXPECT_TRUE(mw_cc == BruteForceCc(rows_, nullptr,
                                    schema_.PredictorColumns(),
                                    schema_.class_column(), 3));

  // The service leg: a Naive Bayes session is exactly one root CC request.
  CostCounters before;
  {
    MutexLock lock(*server_mu);
    before = server->cost_counters();
  }
  SessionSpec spec;
  spec.table = "data";
  spec.task = SessionSpec::Task::kNaiveBayes;
  SessionResult result = (*service)->Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_NE(result.model, nullptr);
  CostCounters service_delta;
  {
    MutexLock lock(*server_mu);
    service_delta = CostCounters::Delta(server->cost_counters(), before);
  }
  EXPECT_EQ(service_delta.ToString(), mw_delta.ToString());

  // The session hands back a model, not its CC table; a model trained from
  // the middleware's table must score every row identically.
  auto mw_model = NaiveBayesModel::Train(schema_, mw_cc);
  ASSERT_TRUE(mw_model.ok());
  for (const Row& row : rows_) {
    ASSERT_EQ(mw_model->LogScores(row), result.model->LogScores(row));
  }

  const ServiceMetrics metrics = (*service)->Metrics();
  EXPECT_EQ(metrics.bitmap_scans, path == CountPath::kBitmap ? 1u : 0u);
  EXPECT_EQ(metrics.shard_scans, path == CountPath::kShards ? 1u : 0u);
}

INSTANTIATE_TEST_SUITE_P(Paths, EntryPointEquivalenceTest,
                         ::testing::Values(CountPath::kSerialRow,
                                           CountPath::kParallelRow,
                                           CountPath::kBitmap,
                                           CountPath::kShards),
                         PathName);

// ---------------------------------------------------------- the executor

class BatchExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakeSchema({4, 3, 5}, 2);
    rows_ = RandomRows(schema_, 3000, /*seed=*/17);
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(server_->CreateTable("data", schema_).ok());
    ASSERT_TRUE(server_->LoadRows("data", rows_).ok());
    root_.node_id = 0;
    root_.parent_id = -1;
    root_.active_attrs = schema_.PredictorColumns();
    ASSERT_TRUE(PrepareRequest(schema_, rows_.size(), &root_).ok());
  }

  BatchExecutor::Batch RootBatch() const {
    BatchExecutor::Batch batch;
    batch.table = "data";
    batch.schema = &schema_;
    batch.table_rows = rows_.size();
    batch.requests.push_back(&root_);
    return batch;
  }

  TempDir dir_;
  Schema schema_;
  std::vector<Row> rows_;
  std::unique_ptr<SqlServer> server_;
  CcRequest root_;
};

TEST_F(BatchExecutorTest, UnboundedBatchesNeverEvict) {
  CountingConfig config;
  config.parallel_scan_threads = 1;
  BatchExecutor executor(server_.get(), config, /*staging=*/nullptr);
  BatchExecutor::Report report;
  ASSERT_TRUE(executor.Run(RootBatch(), &report).ok());
  EXPECT_EQ(report.evicted.at(0), BatchExecutor::Report::Eviction::kNone);

  // A budget too small for even one table: the last node standing falls
  // back to SQL counting at the server.
  BatchExecutor::Batch tight = RootBatch();
  tight.memory_budget = 1;
  ASSERT_TRUE(executor.Run(tight, &report).ok());
  EXPECT_EQ(report.evicted.at(0),
            BatchExecutor::Report::Eviction::kSqlFallback);
  EXPECT_GT(report.observed_bytes.at(0), 1u);
}

TEST_F(BatchExecutorTest, SamplePassCountsEveryNodeOverTheScramble) {
  ASSERT_TRUE(server_->BuildSampleTable("data", 0.3, /*seed=*/5).ok());
  // Overlapping nodes: the root, A1 = 1 and its child A1 = 1 AND A2 <> 0,
  // and an OR the matcher cannot put in its trie.
  std::vector<std::unique_ptr<Expr>> predicates;
  predicates.push_back(Expr::True());
  predicates.push_back(Expr::ColEq("A1", 1));
  {
    std::vector<std::unique_ptr<Expr>> clauses;
    clauses.push_back(Expr::ColEq("A1", 1));
    clauses.push_back(Expr::ColNe("A2", 0));
    predicates.push_back(Expr::And(std::move(clauses)));
  }
  {
    std::vector<std::unique_ptr<Expr>> clauses;
    clauses.push_back(Expr::ColEq("A3", 2));
    clauses.push_back(Expr::ColEq("A2", 1));
    predicates.push_back(Expr::Or(std::move(clauses)));
  }
  std::vector<CcRequest> requests(predicates.size());
  BatchExecutor::Batch batch = RootBatch();
  batch.requests.clear();
  batch.plan.from_sample = true;
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].node_id = static_cast<int>(i);
    requests[i].parent_id = i == 0 ? -1 : 0;
    requests[i].predicate = predicates[i]->Clone();
    requests[i].active_attrs = schema_.PredictorColumns();
    ASSERT_TRUE(PrepareRequest(schema_, rows_.size(), &requests[i]).ok());
    batch.requests.push_back(&requests[i]);
  }
  CountingConfig config;
  config.parallel_scan_threads = 1;
  BatchExecutor executor(server_.get(), config, /*staging=*/nullptr);
  const CostCounters before = server_->cost_counters();
  BatchExecutor::Report report;
  ASSERT_TRUE(executor.Run(batch, &report).ok());
  ASSERT_EQ(report.path, BatchExecutor::Path::kSample);
  const CostCounters delta =
      CostCounters::Delta(server_->cost_counters(), before);

  // The reference: a per-row count over the scramble's rows.
  auto path = server_->SampleTablePath("data");
  ASSERT_TRUE(path.ok());
  auto reader = SampleFileReader::Open(*path, nullptr);
  ASSERT_TRUE(reader.ok());
  auto sample = (*reader)->SampleRows();
  ASSERT_TRUE(sample.ok());
  const uint64_t sample_rows = (*reader)->num_rows();
  ASSERT_GT(sample_rows, 0u);
  EXPECT_EQ(report.rows_scanned, sample_rows);
  for (size_t i = 0; i < requests.size(); ++i) {
    CcTable expected(2);
    uint64_t matched = 0;
    for (uint64_t r = 0; r < sample_rows; ++r) {
      const Value* row = *sample + r * schema_.num_columns();
      if (!requests[i].predicate->Eval(row)) continue;
      expected.AddRow(row, requests[i].active_attrs, schema_.class_column());
      ++matched;
    }
    EXPECT_GT(matched, 0u) << "node " << i;
    EXPECT_EQ(report.sample_rows.at(i), matched) << "node " << i;
    EXPECT_TRUE(report.ccs.at(i) == expected) << "node " << i;
  }
  // One sample-row read per row per node, and no CC-update charge.
  EXPECT_EQ(delta.mw_sample_rows_read.load(), sample_rows * requests.size());
  EXPECT_EQ(delta.mw_cc_updates.load(), 0u);
}

}  // namespace
}  // namespace sqlclass
