// BatchExecutor is the one counting pass behind both entry points: the
// staging middleware (one client's frontier) and the concurrent service
// (cross-session shared scans). These tests pin that down from the outside:
// the same root CC request through either entry point, on every exact path,
// yields the same CC table at the same simulated cost.

#include "middleware/batch_executor.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/mutex.h"
#include "datagen/census.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "derived_grow.h"
#include "middleware/middleware.h"
#include "mining/naive_bayes.h"
#include "mining/tree_client.h"
#include "service/service.h"
#include "storage/sample/sample_file.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::BruteForceCc;
using testing_util::DerivedBySource;
using testing_util::DerivedOnPath;
using testing_util::ExpectGrowsAlike;
using testing_util::FaultScope;
using testing_util::GrowRecord;
using testing_util::LoadCensus;
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
  ClassificationMiddleware::Stats mw_stats;
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
    mw_stats = (*middleware)->stats();

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
  // Both entry points fold the executor's one list of counts.
#define SQLCLASS_EXPECT_COUNT_EQ(name) \
  EXPECT_EQ(metrics.name, mw_stats.name.load()) << #name;
  SQLCLASS_SCAN_COUNTS(SQLCLASS_EXPECT_COUNT_EQ)
#undef SQLCLASS_EXPECT_COUNT_EQ
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

// ------------------------------------------------- derived sibling tables

/// A copy of `request` for another batch, with or without its parent's
/// table; predicates bound again.
CcRequest CopyRequest(const Schema& schema, uint64_t table_rows,
                      const CcRequest& request, bool keep_parent_cc) {
  CcRequest copy;
  copy.node_id = request.node_id;
  copy.parent_id = request.parent_id;
  copy.predicate = request.predicate->Clone();
  copy.active_attrs = request.active_attrs;
  copy.data_size = request.data_size;
  copy.data_size_is_estimate = request.data_size_is_estimate;
  if (keep_parent_cc) copy.parent_cc = request.parent_cc;
  EXPECT_TRUE(PrepareRequest(schema, table_rows, &copy).ok());
  return copy;
}

class DerivedSiblingTest : public BatchExecutorTest {
 protected:
  /// The exact table of the rows `predicate` keeps (null: every row),
  /// over every predictor.
  std::shared_ptr<const CcTable> ParentTable(const Expr* predicate) {
    std::unique_ptr<Expr> bound =
        predicate != nullptr ? predicate->Clone() : Expr::True();
    EXPECT_TRUE(bound->Bind(schema_).ok());
    return std::make_shared<const CcTable>(
        BruteForceCc(rows_, bound.get(), schema_.PredictorColumns(),
                     schema_.class_column(), 2));
  }

  /// A child request under `parent` with its exact data size.
  CcRequest Child(int node_id, std::unique_ptr<Expr> predicate,
                  std::vector<int> attrs,
                  std::shared_ptr<const CcTable> parent) {
    CcRequest request;
    request.node_id = node_id;
    request.parent_id = 0;
    request.predicate = std::move(predicate);
    request.active_attrs = std::move(attrs);
    request.parent_cc = std::move(parent);
    EXPECT_TRUE(PrepareRequest(schema_, rows_.size(), &request).ok());
    for (const Row& row : rows_) {
      request.data_size += request.predicate->Eval(row);
    }
    return request;
  }

  /// Runs `requests` as one batch under `budget` bytes of CC memory twice,
  /// with and without their parent tables, and checks that both runs
  /// report the same tables, evictions, rows and costs, and that the
  /// first derived `derived` nodes and the second none. `evicted`, if
  /// given, receives the evictions.
  void ExpectDerivedEqualsCounted(
      const std::vector<CcRequest>& requests, size_t budget,
      uint64_t derived, int threads,
      std::vector<BatchExecutor::Report::Eviction>* evicted = nullptr) {
    CountingConfig config;
    config.parallel_scan_threads = threads;
    BatchExecutor executor(server_.get(), config, /*staging=*/nullptr);
    BatchExecutor::Report reports[2];
    CostCounters deltas[2];
    for (int counted = 0; counted < 2; ++counted) {
      std::vector<CcRequest> copies;
      for (const CcRequest& request : requests) {
        copies.push_back(
            CopyRequest(schema_, rows_.size(), request, counted == 0));
      }
      BatchExecutor::Batch batch = RootBatch();
      batch.requests.clear();
      for (const CcRequest& copy : copies) batch.requests.push_back(&copy);
      batch.memory_budget = budget;
      batch.overflow_check_interval = 64;
      const CostCounters before = server_->cost_counters();
      ASSERT_TRUE(executor.Run(batch, &reports[counted]).ok());
      deltas[counted] = CostCounters::Delta(server_->cost_counters(), before);
    }
    const BatchExecutor::Report& with = reports[0];
    const BatchExecutor::Report& without = reports[1];
    EXPECT_EQ(with.counts.derived_nodes, derived);
    EXPECT_EQ(without.counts.derived_nodes, 0u);
    EXPECT_EQ(with.path, BatchExecutor::Path::kRowScan);
    EXPECT_EQ(with.evicted, without.evicted);
    if (evicted != nullptr) *evicted = with.evicted;
    EXPECT_EQ(with.observed_bytes, without.observed_bytes);
    EXPECT_EQ(with.rows_scanned, without.rows_scanned);
    EXPECT_EQ(deltas[0].ToString(), deltas[1].ToString());
    ASSERT_EQ(with.ccs.size(), requests.size());
    for (size_t i = 0; i < requests.size(); ++i) {
      EXPECT_TRUE(with.ccs[i] == without.ccs[i]) << "node " << i;
      if (with.evicted[i] != BatchExecutor::Report::Eviction::kNone) continue;
      EXPECT_TRUE(with.ccs[i] ==
                  BruteForceCc(rows_, requests[i].predicate.get(),
                               requests[i].active_attrs,
                               schema_.class_column(), 2))
          << "node " << i;
    }
  }

  /// Bytes of the tables of `requests` at their parents' cards: all the
  /// CC memory the batch can ever need.
  static size_t WorstCase(const std::vector<CcRequest>& requests) {
    size_t bytes = 0;
    for (const CcRequest& request : requests) {
      for (int attr : request.active_attrs) {
        bytes += request.parent_cc->DistinctValues(attr) *
                 CcTable::BytesPerEntry(2);
      }
      bytes += 2 * sizeof(int64_t);
    }
    return bytes;
  }
};

TEST_F(DerivedSiblingTest, DerivedTablesEqualCountedOnes) {
  const size_t unbounded = std::numeric_limits<size_t>::max();
  const std::shared_ptr<const CcTable> root = ParentTable(nullptr);
  const std::unique_ptr<Expr> a1_ne_1 = Expr::ColNe("A1", 1);
  const std::shared_ptr<const CcTable> right = ParentTable(a1_ne_1.get());
  // A1 = 1 drops A1; the larger A1 <> 1 keeps it, and counts it itself:
  // its sibling has no A1 cells to subtract.
  auto binary = [&] {
    std::vector<CcRequest> requests;
    requests.push_back(Child(1, Expr::ColEq("A1", 1), {1, 2}, root));
    requests.push_back(Child(2, Expr::ColNe("A1", 1), {0, 1, 2}, root));
    return requests;
  };
  // A1 <> 1 split three ways on A2; every branch drops A2.
  auto multiway = [&](int branches) {
    std::vector<CcRequest> requests;
    for (int v = 0; v < branches; ++v) {
      std::vector<std::unique_ptr<Expr>> clauses;
      clauses.push_back(Expr::ColNe("A1", 1));
      clauses.push_back(Expr::ColEq("A2", v));
      requests.push_back(
          Child(10 + v, Expr::And(std::move(clauses)), {0, 2}, right));
    }
    return requests;
  };
  for (int threads : {1, 2}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    {
      SCOPED_TRACE("binary split, residual split attribute");
      ExpectDerivedEqualsCounted(binary(), unbounded, 1, threads);
    }
    {
      SCOPED_TRACE("multiway split");
      ExpectDerivedEqualsCounted(multiway(3), unbounded, 1, threads);
    }
    {
      SCOPED_TRACE("two groups in one batch");
      std::vector<CcRequest> requests = binary();
      for (CcRequest& request : multiway(3)) {
        requests.push_back(std::move(request));
      }
      ExpectDerivedEqualsCounted(requests, unbounded, 2, threads);
    }
    {
      SCOPED_TRACE("incomplete group: a sibling is not requested");
      ExpectDerivedEqualsCounted(multiway(2), unbounded, 0, threads);
    }
    {
      SCOPED_TRACE("estimated data size");
      std::vector<CcRequest> requests = binary();
      requests[0].data_size_is_estimate = true;
      ExpectDerivedEqualsCounted(requests, unbounded, 0, threads);
    }
    {
      SCOPED_TRACE("bounded batch whose worst case fits");
      ExpectDerivedEqualsCounted(binary(), WorstCase(binary()), 1, threads);
    }
    {
      SCOPED_TRACE("bounded batch whose worst case does not fit");
      // The bound prices A1 <> 1 at A1's four root values, and it holds
      // three, so a budget one byte short of the real tables makes the
      // overflow checks evict, exactly as without parent tables.
      const std::vector<CcRequest> requests = binary();
      std::vector<BatchExecutor::Report::Eviction> evicted;
      ExpectDerivedEqualsCounted(
          requests, WorstCase(requests) - CcTable::BytesPerEntry(2) - 1, 0,
          threads, &evicted);
      ASSERT_EQ(evicted.size(), 2u);
      EXPECT_EQ(evicted[1], BatchExecutor::Report::Eviction::kRequeue);
    }
  }
}

// ------------------------------------------ derived sibling tables, grows

/// Grows over a 30,000-row census table at memory/data 0.1 on two scan
/// workers: the census_bitmap and census_sharded workloads at a test's
/// scale, once the test calls LoadTable.
class DerivedSiblingGrowTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 30000;

  void LoadTable() {
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_NO_FATAL_FAILURE(LoadCensus(server_.get(), kRows, &census_));
    config_.staging_dir = dir_.path();
    config_.memory_budget_bytes = static_cast<size_t>(
        0.1 * static_cast<double>(kRows * census_->schema().RowBytes()));
    config_.parallel_scan_threads = 2;
    config_.use_bitmap_index = false;
    config_.scan_retry.initial_backoff_us = 0;
    client_config_.max_depth = 8;
  }

  GrowRecord GrowsAlike(const std::function<void()>& before_each = {}) {
    return ExpectGrowsAlike(server_.get(), census_->schema(), kRows, config_,
                            client_config_, before_each);
  }

  /// Re-arms `point` to fail `times` hits after letting `after` through.
  static std::function<void()> Fault(const char* point, uint64_t after,
                                     uint64_t times) {
    return [=] {
      FaultInjector::PointConfig fault;
      fault.after = after;
      fault.times = times;
      FaultInjector::Global().Reset();
      FaultInjector::Global().Arm(point, fault);
    };
  }

  TempDir dir_;
  std::unique_ptr<SqlServer> server_;
  std::unique_ptr<CensusDataset> census_;
  MiddlewareConfig config_;
  TreeClientConfig client_config_;
};

TEST_F(DerivedSiblingGrowTest, CensusAtOneTenthMemoryDerivesOnEverySource) {
  TempDir dir;
  CensusParams params;
  params.rows = 30000;
  auto census = CensusDataset::Create(params);
  ASSERT_TRUE(census.ok());
  const Schema& schema = (*census)->schema();
  SqlServer server(dir.path());
  ASSERT_TRUE(LoadIntoServer(&server, "data", schema,
                             [&](const RowSink& sink) {
                               return (*census)->Generate(sink);
                             })
                  .ok());
  MiddlewareConfig config;
  config.staging_dir = dir.path();
  config.memory_budget_bytes =
      static_cast<size_t>(0.1 * static_cast<double>(params.rows *
                                                    schema.RowBytes()));
  config.parallel_scan_threads = 2;
  TreeClientConfig client_config;
  client_config.max_depth = 8;
  {
    SCOPED_TRACE("memory/data 0.1");
    const GrowRecord grow =
        ExpectGrowsAlike(&server, schema, params.rows, config, client_config);
    const std::vector<uint64_t> by_source = DerivedBySource(grow);
    EXPECT_GT(by_source[static_cast<int>(LocationKind::kFile)], 0u);
    EXPECT_GT(by_source[static_cast<int>(LocationKind::kMemory)], 0u);
  }
  {
    SCOPED_TRACE("staging off: every pass reads the server");
    MiddlewareConfig server_only = config;
    server_only.enable_file_staging = false;
    server_only.enable_memory_staging = false;
    client_config.max_depth = 5;
    const GrowRecord grow = ExpectGrowsAlike(&server, schema, params.rows,
                                             server_only, client_config);
    EXPECT_GT(DerivedBySource(grow)[static_cast<int>(LocationKind::kServer)],
              0u);
  }
  {
    SCOPED_TRACE("memory/data 0.02: CC memory runs short");
    MiddlewareConfig tight = config;
    tight.memory_budget_bytes /= 5;
    client_config.max_depth = 8;
    ExpectGrowsAlike(&server, schema, params.rows, tight, client_config);
  }
}

TEST_F(DerivedSiblingGrowTest, MultiwaySplitsDeriveAlike) {
  TempDir dir;
  RandomTreeParams params;
  params.num_attributes = 6;
  params.num_leaves = 40;
  params.cases_per_leaf = 100;
  params.num_classes = 3;
  params.seed = 77;
  auto dataset = RandomTreeDataset::Create(params);
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  const Schema& schema = (*dataset)->schema();
  SqlServer server(dir.path());
  ASSERT_TRUE(LoadIntoServer(&server, "data", schema,
                             [&](const RowSink& sink) {
                               return (*dataset)->Generate(sink);
                             })
                  .ok());
  const uint64_t rows = server.TableRowCount("data").value();
  MiddlewareConfig config;
  config.staging_dir = dir.path();
  config.memory_budget_bytes = static_cast<size_t>(
      0.1 * static_cast<double>(rows * schema.RowBytes()));
  TreeClientConfig client_config;
  client_config.multiway_splits = true;
  const GrowRecord grow =
      ExpectGrowsAlike(&server, schema, rows, config, client_config);
  EXPECT_GT(grow.stats.derived_nodes.load(), 0u);
}

// The bitmap pass derives whatever the memory budget: eviction checks its
// finished tables. Every bitmap is still fetched and charged.
TEST_F(DerivedSiblingGrowTest, BitmapPassesDeriveAlike) {
  ASSERT_NO_FATAL_FAILURE(LoadTable());
  ASSERT_TRUE(server_->BuildBitmapIndex("data").ok());
  config_.use_bitmap_index = true;
  {
    SCOPED_TRACE("every batch served from the bitmap index");
    const GrowRecord grow = GrowsAlike();
    EXPECT_GT(grow.stats.bitmap_scans.load(), 0u);
    EXPECT_EQ(grow.stats.bitmap_fallbacks.load(), 0u);
    EXPECT_GT(DerivedOnPath(grow, &ScanCounts::bitmap_scans), 0u);
  }
  {
    // The root batch fails at its sixth fetch and the next batch, which
    // derives, at its first: both fall back to the row scan, and the
    // batches after them reopen the index.
    SCOPED_TRACE("bitmap/read faults");
    FaultScope scope;
    const GrowRecord grow = GrowsAlike(Fault(faults::kBitmapRead, 5, 2));
    EXPECT_EQ(grow.stats.bitmap_fallbacks.load(), 2u);
    EXPECT_GT(DerivedOnPath(grow, &ScanCounts::bitmap_scans), 0u);
  }
}

// The shard pass derives too; a derived node's task carries only its
// counted attributes, also to the coordinator's rescan of a dead shard.
TEST_F(DerivedSiblingGrowTest, ShardPassesDeriveAlike) {
  ASSERT_NO_FATAL_FAILURE(LoadTable());
  ASSERT_TRUE(server_->BuildShardSet("data", 2).ok());
  config_.sharding.enable = true;
  config_.sharding.min_node_rows = 1;
  config_.sharding.transport = ShardTransportKind::kInProcess;
  {
    SCOPED_TRACE("every batch fanned out over two shards");
    const GrowRecord grow = GrowsAlike();
    EXPECT_GT(grow.stats.shard_scans.load(), 0u);
    EXPECT_EQ(grow.stats.shard_fallbacks.load(), 0u);
    EXPECT_GT(DerivedOnPath(grow, &ScanCounts::shard_scans), 0u);
  }
  {
    // The fourth shard task, in the first batch that derives, fails and
    // is rescanned from the primary heap file.
    SCOPED_TRACE("shard/worker fault");
    FaultScope scope;
    const GrowRecord grow = GrowsAlike(Fault(faults::kShardWorker, 3, 1));
    EXPECT_EQ(grow.stats.shard_rescans.load(), 1u);
    EXPECT_EQ(grow.stats.shard_fallbacks.load(), 0u);
    EXPECT_GT(DerivedOnPath(grow, &ScanCounts::shard_scans), 0u);
  }
}

}  // namespace
}  // namespace sqlclass
