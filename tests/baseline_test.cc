#include <gtest/gtest.h>

#include "baseline/aux_structures.h"
#include "baseline/extract_all.h"
#include "baseline/sql_counting.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/middleware.h"
#include "mining/inmemory_provider.h"
#include "mining/tree_client.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::TempDir;

class BaselineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 6;
    params.num_leaves = 15;
    params.cases_per_leaf = 30;
    params.num_classes = 3;
    params.seed = 77;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    schema_ = (*dataset)->schema();
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(LoadIntoServer(server_.get(), "data", schema_,
                               [&](const RowSink& sink) {
                                 return (*dataset)->Generate(sink);
                               })
                    .ok());
    ASSERT_TRUE((*dataset)->Generate(CollectInto(&rows_)).ok());
    server_->ResetCostCounters();
  }

  DecisionTree GrowWith(CcProvider* provider) {
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(provider, rows_.size());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return std::move(tree).value();
  }

  std::string ReferenceSignature() {
    InMemoryCcProvider provider(schema_, &rows_);
    return GrowWith(&provider).Signature();
  }

  /// QueueRequest's status for a root request counting column `attr`.
  static StatusCode QueueAttr(CcProvider* provider, int attr) {
    CcRequest request;
    request.node_id = 0;
    request.active_attrs = {attr};
    return provider->QueueRequest(std::move(request)).code();
  }

  /// Every baseline admits requests the way the middleware does: an
  /// attribute outside the schema, or the class column, is rejected.
  void ExpectBadAttributesRejected(CcProvider* provider) {
    EXPECT_EQ(QueueAttr(provider, 99), StatusCode::kInvalidArgument);
    EXPECT_EQ(QueueAttr(provider, schema_.class_column()),
              StatusCode::kInvalidArgument);
  }

  TempDir dir_;
  Schema schema_;
  std::unique_ptr<SqlServer> server_;
  std::vector<Row> rows_;
};

TEST_F(BaselineTest, SqlCountingProducesReferenceTree) {
  auto provider = SqlCountingProvider::Create(server_.get(), "data");
  ASSERT_TRUE(provider.ok());
  DecisionTree tree = GrowWith(provider->get());
  EXPECT_EQ(tree.Signature(), ReferenceSignature());
  EXPECT_GT((*provider)->queries_executed(), 0u);
}

TEST_F(BaselineTest, SqlCountingCostsFarMoreThanMiddleware) {
  auto sql_provider = SqlCountingProvider::Create(server_.get(), "data");
  ASSERT_TRUE(sql_provider.ok());
  server_->ResetCostCounters();
  GrowWith(sql_provider->get());
  const double sql_seconds = server_->SimulatedSeconds();

  MiddlewareConfig config;
  config.staging_dir = dir_.path();
  auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
  ASSERT_TRUE(mw.ok());
  server_->ResetCostCounters();
  GrowWith(mw->get());
  const double mw_seconds = server_->SimulatedSeconds();

  // The paper reports "unacceptably poor" SQL counting; an order of
  // magnitude here.
  EXPECT_GT(sql_seconds, 10 * mw_seconds);
}

TEST_F(BaselineTest, ExtractAllProducesReferenceTree) {
  auto provider =
      ExtractAllProvider::Create(server_.get(), "data", dir_.path());
  ASSERT_TRUE(provider.ok());
  DecisionTree tree = GrowWith(provider->get());
  EXPECT_EQ(tree.Signature(), ReferenceSignature());
  EXPECT_TRUE((*provider)->extracted());
  EXPECT_GT((*provider)->file_scans(), 1u);
}

TEST_F(BaselineTest, ExtractAllPullsWholeTableExactlyOnce) {
  auto provider =
      ExtractAllProvider::Create(server_.get(), "data", dir_.path());
  ASSERT_TRUE(provider.ok());
  server_->ResetCostCounters();
  GrowWith(provider->get());
  EXPECT_EQ(server_->cost_counters().cursor_rows_transferred, rows_.size());
  EXPECT_EQ(server_->cost_counters().server_scans, 1u);
  // Every subsequent round re-reads the full extracted file.
  EXPECT_EQ(server_->cost_counters().mw_file_rows_read,
            (*provider)->file_scans() * rows_.size());
}

TEST_F(BaselineTest, AuxProvidersProduceReferenceTree) {
  const std::string reference = ReferenceSignature();
  for (AuxMode mode : {AuxMode::kNone, AuxMode::kTempTableCopy,
                       AuxMode::kTidJoin, AuxMode::kKeysetProc}) {
    AuxConfig config;
    config.mode = mode;
    config.build_threshold = 0.5;
    auto provider = AuxStructureProvider::Create(server_.get(), "data",
                                                 config);
    ASSERT_TRUE(provider.ok());
    DecisionTree tree = GrowWith(provider->get());
    EXPECT_EQ(tree.Signature(), reference)
        << "mode " << static_cast<int>(mode);
  }
}

TEST_F(BaselineTest, AuxStructureBuildsOnceBelowThreshold) {
  AuxConfig config;
  config.mode = AuxMode::kTempTableCopy;
  config.build_threshold = 0.6;
  auto provider = AuxStructureProvider::Create(server_.get(), "data", config);
  ASSERT_TRUE(provider.ok());
  GrowWith(provider->get());
  EXPECT_EQ((*provider)->structures_built(), 1);
}

TEST_F(BaselineTest, AuxStructureNeverBuildsAtZeroThreshold) {
  AuxConfig config;
  config.mode = AuxMode::kTidJoin;
  config.build_threshold = 0.0;
  auto provider = AuxStructureProvider::Create(server_.get(), "data", config);
  ASSERT_TRUE(provider.ok());
  GrowWith(provider->get());
  EXPECT_EQ((*provider)->structures_built(), 0);
}

TEST_F(BaselineTest, RebuildFactorTriggersNewGenerations) {
  AuxConfig config;
  config.mode = AuxMode::kTempTableCopy;
  config.build_threshold = 0.95;
  config.rebuild_factor = 0.9;  // aggressive: rebuild on every 10% shrink
  auto provider = AuxStructureProvider::Create(server_.get(), "data", config);
  ASSERT_TRUE(provider.ok());
  DecisionTree tree = GrowWith(provider->get());
  EXPECT_EQ(tree.Signature(), ReferenceSignature());
  EXPECT_GT((*provider)->structures_built(), 1);
}

TEST_F(BaselineTest, FreeConstructionEliminatesBuildCharges) {
  // Identical runs except for free_construction: the idealized one must be
  // strictly cheaper, and the delta equals the construction work.
  AuxConfig config;
  config.mode = AuxMode::kTempTableCopy;
  config.build_threshold = 0.9;

  server_->ResetCostCounters();
  {
    auto provider =
        AuxStructureProvider::Create(server_.get(), "data", config);
    ASSERT_TRUE(provider.ok());
    GrowWith(provider->get());
  }
  const uint64_t paid_writes =
      server_->cost_counters().temp_table_rows_written;
  EXPECT_GT(paid_writes, 0u);

  server_->ResetCostCounters();
  config.free_construction = true;
  {
    // Temp table name collision avoided: new provider uses generation ids,
    // but the old temp table still exists on the server; drop it first.
    for (const std::string name : {"data_aux1"}) {
      if (server_->HasTable(name)) {
        ASSERT_TRUE(server_->DropTable(name).ok());
      }
    }
    auto provider =
        AuxStructureProvider::Create(server_.get(), "data", config);
    ASSERT_TRUE(provider.ok());
    GrowWith(provider->get());
  }
  EXPECT_EQ(server_->cost_counters().temp_table_rows_written, 0u);
}

TEST_F(BaselineTest, SqlCountingRejectsBadAttributes) {
  auto provider = SqlCountingProvider::Create(server_.get(), "data");
  ASSERT_TRUE(provider.ok());
  ExpectBadAttributesRejected(provider->get());
}

TEST_F(BaselineTest, ExtractAllRejectsBadAttributes) {
  auto provider =
      ExtractAllProvider::Create(server_.get(), "data", dir_.path());
  ASSERT_TRUE(provider.ok());
  ExpectBadAttributesRejected(provider->get());
}

TEST_F(BaselineTest, AuxStructureRejectsBadAttributes) {
  auto provider =
      AuxStructureProvider::Create(server_.get(), "data", AuxConfig());
  ASSERT_TRUE(provider.ok());
  ExpectBadAttributesRejected(provider->get());
}

TEST_F(BaselineTest, KeysetProbesChargedPerFetch) {
  AuxConfig config;
  config.mode = AuxMode::kKeysetProc;
  config.build_threshold = 0.9;
  auto provider = AuxStructureProvider::Create(server_.get(), "data", config);
  ASSERT_TRUE(provider.ok());
  server_->ResetCostCounters();
  GrowWith(provider->get());
  EXPECT_GT(server_->cost_counters().index_probes, 0u);
}

}  // namespace
}  // namespace sqlclass
