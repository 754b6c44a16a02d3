// Environment overrides (middleware/config.cc): one table of cases covering
// every override — unset, each accepted spelling, each rejected value — and
// the read-once contract at both entry points: ClassificationMiddleware and
// ClassificationService resolve the environment in Create, and changing it
// afterwards changes neither config() nor the path a batch is served from.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_pool.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/batch_executor.h"
#include "middleware/config.h"
#include "middleware/middleware.h"
#include "middleware/subprocess_shard_transport.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "service/service.h"
#include "shard/shard_map.h"
#include "test_env.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::EnvVarScope;
using testing_util::TempDir;

// ---------------------------------------------------------------------------
// The override table, case by case.
// ---------------------------------------------------------------------------

template <typename T>
T FromDouble(double v) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<T>(static_cast<int>(v));
  } else {
    return static_cast<T>(v);
  }
}

template <typename T>
double ToDouble(T v) {
  if constexpr (std::is_enum_v<T>) {
    return static_cast<int>(v);
  } else {
    return static_cast<double>(v);
  }
}

// The field one variable overrides, read and written as a double: flags,
// counts, doubles and the transport enum all round-trip exactly.
struct Field {
  const char* var;
  void (*set)(MiddlewareConfig*, double);
  double (*get)(const MiddlewareConfig&);
};

#define FIELD(var, member)                                  \
  {var,                                                     \
   [](MiddlewareConfig* c, double v) {                      \
     c->member = FromDouble<decltype(c->member)>(v);        \
   },                                                       \
   [](const MiddlewareConfig& c) { return ToDouble(c.member); }}

const Field kFields[] = {
    FIELD("SQLCLASS_BITMAP_INDEX", use_bitmap_index),
    FIELD("SQLCLASS_PARALLEL_SCAN_THREADS", parallel_scan_threads),
    FIELD("SQLCLASS_APPROX", approx.enable),
    FIELD("SQLCLASS_APPROX_CONFIDENCE", approx.confidence),
    FIELD("SQLCLASS_APPROX_EXACTNESS", approx.exactness),
    FIELD("SQLCLASS_SHARDS", sharding.enable),
    FIELD("SQLCLASS_SHARDS_MIN_ROWS", sharding.min_node_rows),
    FIELD("SQLCLASS_SHARDS_TRANSPORT", sharding.transport),
    FIELD("SQLCLASS_SHARDS_RPC_DEADLINE_MS", sharding.rpc_deadline_ms),
};

#undef FIELD

constexpr double kInproc = 0;
constexpr double kSubprocess = 1;

// One configured value of one variable's field: unset and empty leave it,
// each accepted value resolves to its partner, each rejected value leaves it.
struct Case {
  const char* var;
  double configured;
  std::vector<std::pair<const char*, double>> accepted;
  std::vector<const char*> rejected;
};

const std::vector<Case>& Cases() {
  static const std::vector<Case> cases = {
      {"SQLCLASS_BITMAP_INDEX", 1, {{"0", 0}, {"false", 0}, {"off", 0}}, {}},
      {"SQLCLASS_BITMAP_INDEX", 0, {{"1", 1}, {"on", 1}, {"true", 1}}, {}},
      // Fills only a 0 ("hardware concurrency"); an explicit count wins.
      {"SQLCLASS_PARALLEL_SCAN_THREADS",
       0,
       {{"5", 5}, {"1", 1}},
       {"0", "-2", "3junk", "not-a-number"}},
      {"SQLCLASS_PARALLEL_SCAN_THREADS", 2, {}, {"5", "1"}},
      {"SQLCLASS_APPROX", 1, {{"0", 0}, {"false", 0}, {"off", 0}}, {}},
      {"SQLCLASS_APPROX", 0, {{"1", 1}, {"yes", 1}}, {}},
      // Open interval (0, 1).
      {"SQLCLASS_APPROX_CONFIDENCE",
       0.95,
       {{"0.99", 0.99}, {"0.5", 0.5}},
       {"0", "1", "1.0", "-0.5", "junk", "nan", "0.9x"}},
      // Closed interval [0, 1].
      {"SQLCLASS_APPROX_EXACTNESS",
       0.5,
       {{"1.0", 1.0}, {"0", 0.0}},
       {"-0.1", "1.1", "x", "inf"}},
      {"SQLCLASS_SHARDS", 1, {{"0", 0}, {"false", 0}, {"off", 0}}, {}},
      {"SQLCLASS_SHARDS", 0, {{"1", 1}, {"on", 1}}, {}},
      {"SQLCLASS_SHARDS_MIN_ROWS",
       4096,
       {{"123", 123}, {"0", 0}},
       {"-1", "junk", "12k"}},
      {"SQLCLASS_SHARDS_TRANSPORT",
       kInproc,
       {{"subprocess", kSubprocess}, {"oop", kSubprocess}, {"1", kSubprocess}},
       {"junk", "2"}},
      {"SQLCLASS_SHARDS_TRANSPORT",
       kSubprocess,
       {{"inproc", kInproc}, {"0", kInproc}},
       {"junk"}},
      {"SQLCLASS_SHARDS_RPC_DEADLINE_MS",
       10000,
       {{"250", 250}},
       {"0", "-5", "junk"}},
  };
  return cases;
}

const Field& FieldOf(const std::string& var) {
  for (const Field& field : kFields) {
    if (var == field.var) return field;
  }
  ADD_FAILURE() << "no field for " << var;
  return kFields[0];
}

// `field` after ApplyEnvOverrides with `var` set to `value` (null: unset).
double Resolve(const Field& field, double configured, const char* value) {
  EnvVarScope env(field.var, value);
  MiddlewareConfig config;
  field.set(&config, configured);
  ApplyEnvOverrides(&config);
  return field.get(config);
}

// Runs every case of `var`.
void ExpectCases(const std::string& var) {
  for (const Case& c : Cases()) {
    if (var != c.var) continue;
    const Field& field = FieldOf(var);
    SCOPED_TRACE(var + " configured " + std::to_string(c.configured));
    EXPECT_EQ(Resolve(field, c.configured, nullptr), c.configured) << "unset";
    EXPECT_EQ(Resolve(field, c.configured, ""), c.configured) << "empty";
    for (const auto& [value, resolved] : c.accepted) {
      EXPECT_EQ(Resolve(field, c.configured, value), resolved) << value;
    }
    for (const char* value : c.rejected) {
      EXPECT_EQ(Resolve(field, c.configured, value), c.configured) << value;
    }
  }
}

// Every field has cases below, and every case a field.
TEST(EnvOverridesTest, EveryFieldHasCases) {
  for (const Field& field : kFields) {
    int cases = 0;
    for (const Case& c : Cases()) cases += std::string(c.var) == field.var;
    EXPECT_GT(cases, 0) << field.var;
  }
  for (const Case& c : Cases()) FieldOf(c.var);
}

TEST(BitmapKnobTest, EnvOverridesConfiguredValue) {
  ExpectCases("SQLCLASS_BITMAP_INDEX");
}

TEST(ApproxEnvTest, EnableOverride) { ExpectCases("SQLCLASS_APPROX"); }

TEST(ApproxEnvTest, NumericOverridesValidateTheirDomains) {
  ExpectCases("SQLCLASS_APPROX_CONFIDENCE");
  ExpectCases("SQLCLASS_APPROX_EXACTNESS");
}

TEST(ShardEnvTest, EnableOverride) { ExpectCases("SQLCLASS_SHARDS"); }

TEST(ShardEnvTest, MinRowsOverride) {
  ExpectCases("SQLCLASS_SHARDS_MIN_ROWS");
}

TEST(TransportEnvTest, TransportOverride) {
  ExpectCases("SQLCLASS_SHARDS_TRANSPORT");
}

TEST(TransportEnvTest, DeadlineOverride) {
  ExpectCases("SQLCLASS_SHARDS_RPC_DEADLINE_MS");
}

// A 0 thread count, left 0 by a rejected override, means hardware
// concurrency once the executor is built.
TEST(ParallelThreadsEnvTest, FillsOnlyAZeroCount) {
  ExpectCases("SQLCLASS_PARALLEL_SCAN_THREADS");
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
  for (const char* rejected : {"3junk", "-2", ""}) {
    EnvVarScope env("SQLCLASS_PARALLEL_SCAN_THREADS", rejected);
    CountingConfig config;
    ApplyEnvOverrides(&config);
    EXPECT_EQ(BatchExecutor(nullptr, config, nullptr).scan_threads(),
              ThreadPool::HardwareConcurrency())
        << rejected;
  }
  EnvVarScope env("SQLCLASS_PARALLEL_SCAN_THREADS", "5");
  CountingConfig config;
  ApplyEnvOverrides(&config);
  EXPECT_EQ(BatchExecutor(nullptr, config, nullptr).scan_threads(), 5);
  config.parallel_scan_threads = 7;
  EXPECT_EQ(BatchExecutor(nullptr, config, nullptr).scan_threads(), 7);
}

TEST(TransportEnvTest, WorkerBinaryResolution) {
  // The build tree's worker binary resolves from the test executable's
  // location (../tools sibling).
  const std::string resolved = ResolveShardWorkerBinary("");
  ASSERT_FALSE(resolved.empty());
  // An explicit configured path wins; a missing explicit path fails hard
  // instead of silently falling elsewhere.
  EXPECT_EQ(ResolveShardWorkerBinary(resolved), resolved);
  EXPECT_TRUE(ResolveShardWorkerBinary("/nonexistent/worker").empty());

  // SQLCLASS_SHARD_WORKER_BIN fills only an empty configured path.
  auto binary = [](const char* configured, const char* env_value) {
    EnvVarScope env("SQLCLASS_SHARD_WORKER_BIN", env_value);
    MiddlewareConfig config;
    config.sharding.worker_binary = configured;
    ApplyEnvOverrides(&config);
    return config.sharding.worker_binary;
  };
  EXPECT_EQ(binary("", nullptr), "");
  EXPECT_EQ(binary("", ""), "");
  EXPECT_EQ(binary("", resolved.c_str()), resolved);
  EXPECT_EQ(ResolveShardWorkerBinary(binary("", resolved.c_str())), resolved);
  EXPECT_EQ(binary(resolved.c_str(), "/nonexistent/worker"), resolved);
  // An env path that is not executable is an explicit path, missing.
  EXPECT_TRUE(
      ResolveShardWorkerBinary(binary("", "/nonexistent/worker")).empty());
}

// ---------------------------------------------------------------------------
// Read once, at Create.
// ---------------------------------------------------------------------------

class EnvReadOnceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 6;
    params.num_leaves = 12;
    params.cases_per_leaf = 30;
    params.num_classes = 3;
    params.seed = 9;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
  }

  TempDir dir_;
  std::unique_ptr<RandomTreeDataset> dataset_;
};

// The middleware resolves its overrides in Create: changing the variables
// before the grow changes neither config() — the executor's thread count
// included — nor the served path.
TEST_F(EnvReadOnceTest, MiddlewareResolvesOverridesOnceAtCreate) {
  SqlServer server(dir_.path());
  ASSERT_TRUE(LoadIntoServer(&server, "data", dataset_->schema(),
                             [&](const RowSink& sink) {
                               return dataset_->Generate(sink);
                             })
                  .ok());
  ASSERT_TRUE(server.BuildBitmapIndex("data").ok());
  const std::string staging = dir_.path() + "/staging";
  std::filesystem::create_directories(staging);
  MiddlewareConfig config;
  config.staging_dir = staging;  // bitmap on, parallel_scan_threads 0

  EnvVarScope threads("SQLCLASS_PARALLEL_SCAN_THREADS", "3");
  EnvVarScope bitmap("SQLCLASS_BITMAP_INDEX", "0");
  auto mw = ClassificationMiddleware::Create(&server, "data", config);
  ASSERT_TRUE(mw.ok()) << mw.status().ToString();
  EXPECT_EQ((*mw)->config().parallel_scan_threads, 3);
  EXPECT_FALSE((*mw)->config().use_bitmap_index);

  threads.Set("5");
  bitmap.Set(nullptr);
  DecisionTreeClient client(dataset_->schema(), TreeClientConfig());
  ASSERT_TRUE(client.Grow(mw->get(), dataset_->TotalRows()).ok());
  EXPECT_EQ((*mw)->config().parallel_scan_threads, 3);
  EXPECT_FALSE((*mw)->config().use_bitmap_index);
  EXPECT_EQ((*mw)->stats().bitmap_scans.load(), 0u);
  EXPECT_GT((*mw)->stats().server_scans.load(), 0u);

  // A middleware created now sees the changed environment.
  auto later = ClassificationMiddleware::Create(&server, "data", config);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ((*later)->config().parallel_scan_threads, 5);
  EXPECT_TRUE((*later)->config().use_bitmap_index);
  ASSERT_TRUE(client.Grow(later->get(), dataset_->TotalRows()).ok());
  EXPECT_GT((*later)->stats().bitmap_scans.load(), 0u);
}

TEST_F(EnvReadOnceTest, ServiceResolvesOverridesOnceAtCreate) {
  std::vector<Row> rows;
  ASSERT_TRUE(dataset_->Generate(CollectInto(&rows)).ok());
  EnvVarScope threads("SQLCLASS_PARALLEL_SCAN_THREADS", "2");
  EnvVarScope bitmap("SQLCLASS_BITMAP_INDEX", "0");
  auto service = ClassificationService::Create(dir_.path(), ServiceConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(
      (*service)->CreateAndLoadTable("data", dataset_->schema(), rows).ok());
  {
    MutexLock lock(*(*service)->server_mutex());
    ASSERT_TRUE((*service)->server()->BuildBitmapIndex("data").ok());
  }
  EXPECT_EQ((*service)->config().parallel_scan_threads, 2);
  EXPECT_FALSE((*service)->config().use_bitmap_index);

  threads.Set("5");
  bitmap.Set("1");
  SessionSpec spec;
  spec.table = "data";
  spec.task = SessionSpec::Task::kDecisionTree;
  SessionResult result = (*service)->Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ((*service)->config().parallel_scan_threads, 2);
  EXPECT_FALSE((*service)->config().use_bitmap_index);
  const ServiceMetrics metrics = (*service)->Metrics();
  EXPECT_EQ(metrics.bitmap_scans, 0u);
  EXPECT_GT(metrics.rows_scanned, 0u);
}

}  // namespace
}  // namespace sqlclass
