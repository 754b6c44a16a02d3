#include "middleware/middleware.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "mining/inmemory_provider.h"
#include "mining/tree_client.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

/// Fixture that stands up a server with a random-tree data set and gives
/// every test an in-memory reference tree to compare against.
class MiddlewareTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 8;
    params.num_leaves = 30;
    params.cases_per_leaf = 40;
    params.num_classes = 4;
    params.seed = 1234;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = std::move(dataset).value();
    schema_ = dataset_->schema();

    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(LoadIntoServer(server_.get(), "data", schema_,
                               [&](const RowSink& sink) {
                                 return dataset_->Generate(sink);
                               })
                    .ok());
    ASSERT_TRUE(
        dataset_->Generate(CollectInto(&rows_)).ok());
    server_->ResetCostCounters();
  }

  /// Grows a tree through a fresh middleware with the given config.
  DecisionTree GrowWithMiddleware(MiddlewareConfig config) {
    config.staging_dir = dir_.path();
    auto mw = ClassificationMiddleware::Create(server_.get(), "data",
                                               std::move(config));
    EXPECT_TRUE(mw.ok()) << mw.status().ToString();
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(mw->get(), rows_.size());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    last_stats_ = (*mw)->stats();
    return std::move(tree).value();
  }

  DecisionTree GrowReference() {
    InMemoryCcProvider provider(schema_, &rows_);
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&provider, rows_.size());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return std::move(tree).value();
  }

  TempDir dir_;
  std::unique_ptr<RandomTreeDataset> dataset_;
  Schema schema_;
  std::unique_ptr<SqlServer> server_;
  std::vector<Row> rows_;
  ClassificationMiddleware::Stats last_stats_;
};

TEST_F(MiddlewareTest, ProducesSameTreeAsInMemoryReference) {
  DecisionTree reference = GrowReference();
  DecisionTree tree = GrowWithMiddleware(MiddlewareConfig());
  EXPECT_EQ(reference.Signature(), tree.Signature());
  EXPECT_EQ(reference.CountLeaves(), tree.CountLeaves());
}

TEST_F(MiddlewareTest, EquivalentUnderTinyMemory) {
  DecisionTree reference = GrowReference();
  MiddlewareConfig config;
  config.memory_budget_bytes = 16 << 10;  // forces multiple scans per level
  DecisionTree tree = GrowWithMiddleware(config);
  EXPECT_EQ(reference.Signature(), tree.Signature());
}

TEST_F(MiddlewareTest, EquivalentWithoutStaging) {
  DecisionTree reference = GrowReference();
  MiddlewareConfig config;
  config.enable_file_staging = false;
  config.enable_memory_staging = false;
  DecisionTree tree = GrowWithMiddleware(config);
  EXPECT_EQ(reference.Signature(), tree.Signature());
  EXPECT_EQ(last_stats_.file_scans, 0u);
  EXPECT_EQ(last_stats_.memory_scans, 0u);
}

TEST_F(MiddlewareTest, EquivalentWithFileStagingOnly) {
  DecisionTree reference = GrowReference();
  MiddlewareConfig config;
  config.enable_memory_staging = false;
  DecisionTree tree = GrowWithMiddleware(config);
  EXPECT_EQ(reference.Signature(), tree.Signature());
}

TEST_F(MiddlewareTest, EquivalentWithoutFilterPushdown) {
  DecisionTree reference = GrowReference();
  MiddlewareConfig config;
  config.enable_filter_pushdown = false;
  DecisionTree tree = GrowWithMiddleware(config);
  EXPECT_EQ(reference.Signature(), tree.Signature());
}

TEST_F(MiddlewareTest, MemoryStagingUsesMemoryScans) {
  MiddlewareConfig config;  // 64 MB default dwarfs this tiny data set
  GrowWithMiddleware(config);
  EXPECT_GT(last_stats_.memory_scans, 0u);
  // Once the root is staged into memory, the server is never re-scanned.
  EXPECT_EQ(last_stats_.server_scans, 1u);
}

TEST_F(MiddlewareTest, NoStagingScansServerEveryBatch) {
  MiddlewareConfig config;
  config.enable_file_staging = false;
  config.enable_memory_staging = false;
  GrowWithMiddleware(config);
  EXPECT_EQ(last_stats_.server_scans, last_stats_.batches);
  EXPECT_GT(last_stats_.batches, 1u);
}

TEST_F(MiddlewareTest, PushdownReducesTransferredRows) {
  MiddlewareConfig config;
  config.enable_file_staging = false;
  config.enable_memory_staging = false;

  server_->ResetCostCounters();
  GrowWithMiddleware(config);
  const uint64_t with_pushdown =
      server_->cost_counters().cursor_rows_transferred;

  server_->ResetCostCounters();
  config.enable_filter_pushdown = false;
  GrowWithMiddleware(config);
  const uint64_t without_pushdown =
      server_->cost_counters().cursor_rows_transferred;

  EXPECT_LT(with_pushdown, without_pushdown);
}

TEST_F(MiddlewareTest, SqlFallbackTriggersUnderExtremeMemoryPressure) {
  DecisionTree reference = GrowReference();
  MiddlewareConfig config;
  config.memory_budget_bytes = 1 << 10;  // 1 KB: no CC table fits
  config.overflow_check_interval = 1;
  DecisionTree tree = GrowWithMiddleware(config);
  EXPECT_EQ(reference.Signature(), tree.Signature());
  EXPECT_GT(last_stats_.sql_fallbacks, 0u);
}

TEST_F(MiddlewareTest, StoresAreGarbageCollected) {
  MiddlewareConfig config;
  auto mw_or = ClassificationMiddleware::Create(server_.get(), "data",
                                                [&] {
                                                  MiddlewareConfig c = config;
                                                  c.staging_dir = dir_.path();
                                                  return c;
                                                }());
  ASSERT_TRUE(mw_or.ok());
  ClassificationMiddleware* mw = mw_or->get();
  DecisionTreeClient client(schema_, TreeClientConfig());
  ASSERT_TRUE(client.Grow(mw, rows_.size()).ok());
  // After the tree completes, queueing + fulfilling one more request (root
  // again) sweeps every stale store.
  CcRequest request;
  request.node_id = 9999;
  request.predicate = Expr::True();
  request.active_attrs = schema_.PredictorColumns();
  ASSERT_TRUE(mw->QueueRequest(std::move(request)).ok());
  ASSERT_TRUE(mw->FulfillSome().ok());
  EXPECT_GT(mw->stats().stores_freed, 0u);
}

TEST_F(MiddlewareTest, RejectsRequestWithUnknownColumnPredicate) {
  MiddlewareConfig config;
  config.staging_dir = dir_.path();
  auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
  ASSERT_TRUE(mw.ok());
  CcRequest request;
  request.node_id = 0;
  request.predicate = Expr::ColEq("nope", 1);
  request.active_attrs = schema_.PredictorColumns();
  EXPECT_FALSE((*mw)->QueueRequest(std::move(request)).ok());
}

TEST_F(MiddlewareTest, RejectsRequestCountingClassColumn) {
  MiddlewareConfig config;
  config.staging_dir = dir_.path();
  auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
  ASSERT_TRUE(mw.ok());
  CcRequest request;
  request.node_id = 0;
  request.predicate = Expr::True();
  request.active_attrs = {schema_.class_column()};
  EXPECT_FALSE((*mw)->QueueRequest(std::move(request)).ok());
}

TEST_F(MiddlewareTest, RejectsInvalidConfigs) {
  MiddlewareConfig config;
  config.staging_dir = dir_.path();
  config.memory_budget_bytes = 0;
  EXPECT_FALSE(
      ClassificationMiddleware::Create(server_.get(), "data", config).ok());
  config = MiddlewareConfig();
  config.staging_dir = dir_.path();
  config.file_split_threshold = 1.5;
  EXPECT_FALSE(
      ClassificationMiddleware::Create(server_.get(), "data", config).ok());
  config = MiddlewareConfig();
  config.staging_dir = dir_.path();
  config.cc_memory_reserve = 1.0;
  EXPECT_FALSE(
      ClassificationMiddleware::Create(server_.get(), "data", config).ok());
  config = MiddlewareConfig();
  config.staging_dir = dir_.path();
  config.overflow_check_interval = 0;
  EXPECT_FALSE(
      ClassificationMiddleware::Create(server_.get(), "data", config).ok());
}

TEST_F(MiddlewareTest, FulfillSomeOnEmptyQueueReturnsNothing) {
  MiddlewareConfig config;
  config.staging_dir = dir_.path();
  auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
  ASSERT_TRUE(mw.ok());
  auto results = (*mw)->FulfillSome();
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

/// Sweep: every combination of memory budget and staging configuration must
/// produce the reference classifier (DESIGN.md invariant 1).
struct EquivParam {
  size_t memory_kb;
  bool file_staging;
  bool memory_staging;
  // GoogleTest names each case by hex-dumping these 24 bytes, so the six the
  // compiler would leave as padding are spelled out. Left as padding they
  // held stack garbage and the case names changed from build to build; the
  // values below keep the names the cases have always been listed under.
  uint8_t name_bytes[6];
  double split_threshold;
};
static_assert(sizeof(EquivParam) == 24, "EquivParam must have no padding");

class MiddlewareEquivalenceTest
    : public MiddlewareTest,
      public ::testing::WithParamInterface<EquivParam> {};

TEST_P(MiddlewareEquivalenceTest, MatchesReference) {
  const EquivParam& param = GetParam();
  DecisionTree reference = GrowReference();
  MiddlewareConfig config;
  config.memory_budget_bytes = param.memory_kb << 10;
  config.enable_file_staging = param.file_staging;
  config.enable_memory_staging = param.memory_staging;
  config.file_split_threshold = param.split_threshold;
  DecisionTree tree = GrowWithMiddleware(config);
  EXPECT_EQ(reference.Signature(), tree.Signature());
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MiddlewareEquivalenceTest,
    ::testing::Values(EquivParam{8, false, false, {}, 0.5},
                      EquivParam{8, true, false, {}, 0.0},
                      EquivParam{8, true, false, {0x01}, 0.5},
                      EquivParam{8, true, false, {}, 1.0},
                      EquivParam{8, true, true, {0x70}, 0.5},
                      EquivParam{64, false, true, {}, 0.5},
                      EquivParam{64, true, true, {0x04}, 1.0},
                      EquivParam{1024, true, true, {}, 0.5},
                      EquivParam{100000, true, true, {}, 0.5}));

}  // namespace
}  // namespace sqlclass
