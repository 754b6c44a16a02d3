#include "middleware/async_provider.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/middleware.h"
#include "mining/inmemory_provider.h"
#include "mining/naive_bayes.h"
#include "mining/tree_client.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::TempDir;

class AsyncProviderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 8;
    params.num_leaves = 30;
    params.cases_per_leaf = 40;
    params.num_classes = 4;
    params.seed = 777;
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
  }

  std::unique_ptr<ClassificationMiddleware> MakeMiddleware(
      MiddlewareConfig config = MiddlewareConfig()) {
    config.staging_dir = dir_.path();
    auto mw = ClassificationMiddleware::Create(server_.get(), "data",
                                               std::move(config));
    EXPECT_TRUE(mw.ok());
    return std::move(mw).value();
  }

  std::string ReferenceSignature() {
    InMemoryCcProvider provider(schema_, &rows_);
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&provider, rows_.size());
    EXPECT_TRUE(tree.ok());
    return tree->Signature();
  }

  TempDir dir_;
  Schema schema_;
  std::unique_ptr<SqlServer> server_;
  std::vector<Row> rows_;
};

TEST_F(AsyncProviderTest, GrowsTheReferenceTree) {
  const std::string reference = ReferenceSignature();
  auto middleware = MakeMiddleware();
  AsyncCcProvider async(middleware.get());
  DecisionTreeClient client(schema_, TreeClientConfig());
  auto tree = client.Grow(&async, rows_.size());
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->Signature(), reference);
  EXPECT_GT(async.worker_rounds(), 0u);
}

TEST_F(AsyncProviderTest, EquivalentUnderEveryStagingConfig) {
  const std::string reference = ReferenceSignature();
  struct Config {
    size_t memory_kb;
    bool file_staging;
    bool memory_staging;
  };
  for (const Config& c : {Config{8, false, false}, Config{8, true, false},
                          Config{64, true, true}, Config{100000, true, true}}) {
    MiddlewareConfig config;
    config.memory_budget_bytes = c.memory_kb << 10;
    config.enable_file_staging = c.file_staging;
    config.enable_memory_staging = c.memory_staging;
    auto middleware = MakeMiddleware(config);
    AsyncCcProvider async(middleware.get());
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&async, rows_.size());
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    EXPECT_EQ(tree->Signature(), reference)
        << c.memory_kb << "KB f=" << c.file_staging
        << " m=" << c.memory_staging;
  }
}

TEST_F(AsyncProviderTest, RepeatedRunsAreDeterministic) {
  std::string first;
  for (int run = 0; run < 3; ++run) {
    auto middleware = MakeMiddleware();
    AsyncCcProvider async(middleware.get());
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&async, rows_.size());
    ASSERT_TRUE(tree.ok());
    if (run == 0) {
      first = tree->Signature();
    } else {
      EXPECT_EQ(tree->Signature(), first);
    }
  }
}

TEST_F(AsyncProviderTest, WrapsInMemoryProviderToo) {
  InMemoryCcProvider inner(schema_, &rows_);
  AsyncCcProvider async(&inner);
  DecisionTreeClient client(schema_, TreeClientConfig());
  auto tree = client.Grow(&async, rows_.size());
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Signature(), ReferenceSignature());
}

TEST_F(AsyncProviderTest, NaiveBayesTrainsThroughAsync) {
  auto middleware = MakeMiddleware();
  AsyncCcProvider async(middleware.get());
  auto model = NaiveBayesModel::TrainWith(schema_, &async, rows_.size());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(model->Accuracy(rows_), 0.5);
}

TEST_F(AsyncProviderTest, ErrorsSurfaceAtFulfillSome) {
  auto middleware = MakeMiddleware();
  AsyncCcProvider async(middleware.get());
  CcRequest bad;
  bad.node_id = 0;
  bad.predicate = Expr::ColEq("no_such_column", 1);
  bad.active_attrs = schema_.PredictorColumns();
  ASSERT_TRUE(async.QueueRequest(std::move(bad)).ok());  // deferred check
  auto results = async.FulfillSome();
  EXPECT_FALSE(results.ok());
  // After an error the provider stays failed.
  CcRequest good;
  good.node_id = 1;
  good.predicate = Expr::True();
  good.active_attrs = schema_.PredictorColumns();
  EXPECT_FALSE(async.QueueRequest(std::move(good)).ok());
}

TEST_F(AsyncProviderTest, EmptyFulfillWhenNothingQueued) {
  auto middleware = MakeMiddleware();
  AsyncCcProvider async(middleware.get());
  EXPECT_EQ(async.PendingRequests(), 0u);
  auto results = async.FulfillSome();
  ASSERT_TRUE(results.ok());
  EXPECT_TRUE(results->empty());
}

TEST_F(AsyncProviderTest, StatsReadableMidGrow) {
  // Regression for the old async_provider.h caveat: scalar observer state
  // (server cost counters, middleware Stats) must be readable from another
  // thread *while* a grow is in flight. Run under -DSQLCLASS_SANITIZE=thread
  // to prove it.
  const std::string reference = ReferenceSignature();
  auto middleware = MakeMiddleware();
  AsyncCcProvider async(middleware.get());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::thread observer([&] {
    do {
      CostCounters cost = server_->cost_counters();
      (void)cost;
      ClassificationMiddleware::Stats mw_stats = middleware->stats();
      (void)mw_stats;
      reads.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
    } while (!stop.load(std::memory_order_relaxed));
  });
  // The grow takes milliseconds and could end before the observer is ever
  // scheduled: start it only once the observer has read, so the assertion
  // below does not depend on scheduling and the reads overlap the grow.
  while (reads.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }

  DecisionTreeClient client(schema_, TreeClientConfig());
  auto tree = client.Grow(&async, rows_.size());
  stop.store(true);
  observer.join();

  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->Signature(), reference);
  EXPECT_GT(reads.load(), 0u);
}

TEST_F(AsyncProviderTest, ManySmallTreesBackToBackOnOneWrapper) {
  // One wrapper (and its worker thread) must survive many grow cycles: the
  // queues drain fully between trees and worker_rounds keeps advancing.
  InMemoryCcProvider inner(schema_, &rows_);
  AsyncCcProvider async(&inner);

  const std::string reference = ReferenceSignature();
  uint64_t last_rounds = 0;
  for (int run = 0; run < 8; ++run) {
    DecisionTreeClient client(schema_, TreeClientConfig());
    auto tree = client.Grow(&async, rows_.size());
    ASSERT_TRUE(tree.ok()) << "run " << run << ": "
                           << tree.status().ToString();
    EXPECT_EQ(tree->Signature(), reference) << "run " << run;
    EXPECT_EQ(async.PendingRequests(), 0u);
    EXPECT_GT(async.worker_rounds(), last_rounds) << "run " << run;
    last_rounds = async.worker_rounds();
  }
}

TEST_F(AsyncProviderTest, EarlyReleaseNodeDoesNotDeadlock) {
  // Release a node *before* queueing its children — out of contract order —
  // against both inner providers. Neither may deadlock; with staging
  // disabled the middleware holds no per-node stores, so results stay
  // correct too.
  auto count_rows = [&](Expr& predicate) {
    EXPECT_TRUE(predicate.Bind(schema_).ok());  // idempotent: providers
    uint64_t n = 0;                             // re-bind their own copy
    for (const Row& row : rows_) {
      if (predicate.Eval(row)) ++n;
    }
    return n;
  };

  MiddlewareConfig no_staging;
  no_staging.enable_file_staging = false;
  no_staging.enable_memory_staging = false;
  auto middleware = MakeMiddleware(no_staging);
  InMemoryCcProvider inmemory(schema_, &rows_);

  CcProvider* inners[] = {&inmemory,
                          static_cast<CcProvider*>(middleware.get())};
  for (CcProvider* inner : inners) {
    AsyncCcProvider async(inner);

    CcRequest root;
    root.node_id = 0;
    root.parent_id = -1;
    root.predicate = Expr::True();
    root.active_attrs = schema_.PredictorColumns();
    root.data_size = rows_.size();
    ASSERT_TRUE(async.QueueRequest(std::move(root)).ok());
    auto root_results = async.FulfillSome();
    ASSERT_TRUE(root_results.ok()) << root_results.status().ToString();
    ASSERT_EQ(root_results->size(), 1u);

    async.ReleaseNode(0);  // early: children not queued yet

    int next_id = 1;
    for (Value v : {Value(0), Value(1)}) {
      CcRequest child;
      child.node_id = next_id++;
      child.parent_id = 0;
      child.predicate = Expr::ColEq("A1", v);
      child.active_attrs = schema_.PredictorColumns();
      child.data_size = count_rows(*child.predicate);
      ASSERT_TRUE(async.QueueRequest(std::move(child)).ok());
    }
    while (async.PendingRequests() > 0) {
      auto results = async.FulfillSome();
      ASSERT_TRUE(results.ok()) << results.status().ToString();
      for (const CcResult& result : *results) {
        EXPECT_GE(result.node_id, 1);
        async.ReleaseNode(result.node_id);  // early again (leaves)
      }
    }
  }
}

TEST_F(AsyncProviderTest, CleanShutdownWithWorkInFlight) {
  // Destroy the wrapper right after queueing: the worker must exit without
  // deadlock or crash whether or not it got to the request.
  for (int i = 0; i < 10; ++i) {
    auto middleware = MakeMiddleware();
    AsyncCcProvider async(middleware.get());
    CcRequest request;
    request.node_id = 0;
    request.predicate = Expr::True();
    request.active_attrs = schema_.PredictorColumns();
    ASSERT_TRUE(async.QueueRequest(std::move(request)).ok());
    // no FulfillSome: destructor races the worker intentionally
  }
}

}  // namespace
}  // namespace sqlclass
