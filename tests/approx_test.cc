// Approximate counting path (scheduler Rule 7): gate math, CC scale-up
// invariants, env-knob resolution, byte-identity whenever the path is
// disabled, cost reduction when sampled answers are accepted, conservative
// escalation when the data carries no signal, and fault recovery (sample
// passes degrade to the exact path in the same batch).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "datagen/load.h"
#include "datagen/random_tree.h"
#include "middleware/middleware.h"
#include "middleware/sample_scan.h"
#include "mining/split.h"
#include "mining/tree_client.h"
#include "server/server.h"
#include "test_env.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::EnvVarScope;
using testing_util::FaultScope;
using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

// ---------------------------------------------------------------------------
// ScaleCcToTotal.
// ---------------------------------------------------------------------------

TEST(ScaleCcTest, ExactMultipleScalesEveryCellExactly) {
  std::vector<int> attrs = {0, 1};
  CcTable cc(2);
  cc.Add(0, /*value=*/0, /*class=*/0, 6);
  cc.Add(0, 1, 0, 2);
  cc.Add(0, 0, 1, 4);
  cc.Add(0, 1, 1, 8);
  cc.Add(1, 0, 0, 8);
  cc.Add(1, 1, 1, 12);
  cc.AddClassTotal(0, 8);
  cc.AddClassTotal(1, 12);
  ASSERT_EQ(cc.TotalRows(), 20);

  CcTable scaled = ScaleCcToTotal(cc, attrs, 60);  // exact 3x
  EXPECT_EQ(scaled.TotalRows(), 60);
  EXPECT_EQ(scaled.ClassTotals()[0], 24);
  EXPECT_EQ(scaled.ClassTotals()[1], 36);
  EXPECT_EQ(scaled.GetCounts(0, 0)[0], 18);
  EXPECT_EQ(scaled.GetCounts(0, 1)[0], 6);
  EXPECT_EQ(scaled.GetCounts(0, 0)[1], 12);
  EXPECT_EQ(scaled.GetCounts(0, 1)[1], 24);
  EXPECT_EQ(scaled.GetCounts(1, 0)[0], 24);
  EXPECT_EQ(scaled.GetCounts(1, 1)[1], 36);
}

TEST(ScaleCcTest, StructuralInvariantsHoldUnderUnevenScaling) {
  // 7 rows scaled to 1000: nothing divides evenly, yet every exact-CC
  // invariant must still hold and no nonzero cell may vanish.
  Schema schema = MakeSchema({3, 4, 2}, 3);
  std::vector<Row> rows = RandomRows(schema, 7, 77);
  std::vector<int> attrs = {0, 1, 2};
  CcTable cc(3);
  for (const Row& row : rows) cc.AddRow(row, attrs, 3);

  const uint64_t target = 1000;
  CcTable scaled = ScaleCcToTotal(cc, attrs, target);
  ASSERT_EQ(scaled.TotalRows(), static_cast<int64_t>(target));

  int64_t class_sum = 0;
  for (int64_t t : scaled.ClassTotals()) class_sum += t;
  EXPECT_EQ(class_sum, static_cast<int64_t>(target));

  for (int attr : attrs) {
    std::vector<int64_t> per_class(3, 0);
    for (const auto& [value, counts] : scaled.AttributeStates(attr)) {
      for (int k = 0; k < 3; ++k) per_class[k] += counts[k];
    }
    // Each attribute's cells must sum back to the class totals.
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(per_class[k], scaled.ClassTotals()[k]) << "attr " << attr;
    }
  }

  // Upscaling never zeroes a populated cell (floor(c * T / S) >= 1 when
  // T >= S and c >= 1).
  for (int attr : attrs) {
    for (const auto& [value, counts] : cc.AttributeStates(attr)) {
      const auto& scaled_counts = scaled.GetCounts(attr, value);
      for (int k = 0; k < 3; ++k) {
        if (counts[k] > 0) {
          EXPECT_GT(scaled_counts[k], 0);
        }
      }
    }
  }
}

TEST(ScaleCcTest, IdentityWhenTargetEqualsSampleTotal) {
  Schema schema = MakeSchema({4, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 50, 5);
  std::vector<int> attrs = {0, 1};
  CcTable cc(2);
  for (const Row& row : rows) cc.AddRow(row, attrs, 2);
  CcTable scaled = ScaleCcToTotal(cc, attrs, 50);
  EXPECT_TRUE(scaled == cc);
}

// ---------------------------------------------------------------------------
// Gate math.
// ---------------------------------------------------------------------------

TEST(GateTest, NormalQuantileMatchesKnownValues) {
  EXPECT_NEAR(NormalQuantile(0.975), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644854, 1e-4);
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959964, 1e-4);
}

CcTable SignalCc(int rows_per_cell) {
  // Attribute 0 predicts the class strongly but not perfectly; attribute 1
  // is noise. A clear but finite gap with nonzero sampling variance.
  CcTable cc(2);
  const int64_t heavy = 9 * rows_per_cell;
  const int64_t light = rows_per_cell;
  cc.Add(0, 0, 0, heavy);
  cc.Add(0, 0, 1, light);
  cc.Add(0, 1, 0, light);
  cc.Add(0, 1, 1, heavy);
  const int64_t half = (heavy + light) / 2;
  cc.Add(1, 0, 0, half);
  cc.Add(1, 0, 1, half);
  cc.Add(1, 1, 0, half);
  cc.Add(1, 1, 1, half);
  cc.AddClassTotal(0, heavy + light);
  cc.AddClassTotal(1, heavy + light);
  return cc;
}

TEST(GateTest, ClearGapAcceptedAndDegenerateSamplesEscalate) {
  std::vector<int> attrs = {0, 1};
  CcTable cc = SignalCc(100);
  const uint64_t n = static_cast<uint64_t>(cc.TotalRows());

  SampleGateResult r = EvaluateSampleGate(cc, attrs, SplitCriterion::kEntropy,
                                          n, 0.95, 0.0);
  EXPECT_TRUE(r.accept);
  EXPECT_GT(r.gap, 0.0);
  EXPECT_GT(r.threshold, 0.0);

  // Too few matching sample rows: escalate regardless of the counts.
  EXPECT_FALSE(EvaluateSampleGate(cc, attrs, SplitCriterion::kEntropy, 1,
                                  0.95, 0.0)
                   .accept);

  // A pure sample slice can never certify a split choice.
  CcTable pure(2);
  pure.Add(0, 0, 0, 50);
  pure.Add(0, 1, 0, 50);
  pure.AddClassTotal(0, 100);
  EXPECT_FALSE(EvaluateSampleGate(pure, attrs, SplitCriterion::kEntropy, 100,
                                  0.95, 0.0)
                   .accept);

  // No active attributes => no candidate splits => escalate.
  EXPECT_FALSE(
      EvaluateSampleGate(cc, {}, SplitCriterion::kEntropy, n, 0.95, 0.0)
          .accept);
}

TEST(GateTest, ThresholdWidensWithConfidenceAndExactness) {
  std::vector<int> attrs = {0, 1};
  CcTable cc = SignalCc(100);
  const uint64_t n = static_cast<uint64_t>(cc.TotalRows());

  SampleGateResult base = EvaluateSampleGate(
      cc, attrs, SplitCriterion::kEntropy, n, 0.9, 0.0);
  SampleGateResult confident = EvaluateSampleGate(
      cc, attrs, SplitCriterion::kEntropy, n, 0.999, 0.0);
  EXPECT_GT(confident.threshold, base.threshold);
  EXPECT_DOUBLE_EQ(confident.gap, base.gap);

  // exactness e divides the threshold by (1 - e).
  SampleGateResult widened = EvaluateSampleGate(
      cc, attrs, SplitCriterion::kEntropy, n, 0.9, 0.9);
  EXPECT_NEAR(widened.threshold, base.threshold * 10.0,
              base.threshold * 1e-9);

  // Extreme exactness rejects even this clear gap.
  SampleGateResult extreme = EvaluateSampleGate(
      cc, attrs, SplitCriterion::kEntropy, n, 0.9, 1.0 - 1e-12);
  EXPECT_FALSE(extreme.accept);

  // Gain ratio gates through the entropy lens rather than escalating.
  SampleGateResult ratio = EvaluateSampleGate(
      cc, attrs, SplitCriterion::kGainRatio, n, 0.9, 0.0);
  EXPECT_DOUBLE_EQ(ratio.gap, base.gap);
}

TEST(GateTest, MoreSampleRowsShrinkTheThreshold) {
  // Same proportions, 10x the sample: Var ~ 1/n, threshold ~ 1/sqrt(n).
  std::vector<int> attrs = {0, 1};
  SampleGateResult small = EvaluateSampleGate(
      SignalCc(10), attrs, SplitCriterion::kEntropy, 200, 0.95, 0.0);
  SampleGateResult large = EvaluateSampleGate(
      SignalCc(100), attrs, SplitCriterion::kEntropy, 2000, 0.95, 0.0);
  EXPECT_NEAR(small.gap, large.gap, 1e-9);
  EXPECT_LT(large.threshold, small.threshold);
  EXPECT_NEAR(large.threshold, small.threshold / std::sqrt(10.0),
              small.threshold * 0.05);
}

// ---------------------------------------------------------------------------
// End-to-end middleware behaviour.
// ---------------------------------------------------------------------------

class MiddlewareApproxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomTreeParams params;
    params.num_attributes = 6;
    params.num_leaves = 10;
    params.cases_per_leaf = 360.0;
    params.num_classes = 3;
    params.seed = 9;
    auto dataset = RandomTreeDataset::Create(params);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(LoadIntoServer(server_.get(), "data", dataset_->schema(),
                               [&](const RowSink& sink) {
                                 return dataset_->Generate(sink);
                               })
                    .ok());
    staging_ = dir_.path() + "/staging";
    std::filesystem::create_directories(staging_);
  }

  MiddlewareConfig Config(bool approx_on) {
    MiddlewareConfig config;
    config.staging_dir = staging_;
    config.scan_retry.initial_backoff_us = 0;
    config.approx.enable = approx_on;
    config.approx.min_node_rows = 200;
    config.approx.confidence = 0.9;
    return config;
  }

  struct GrowOutput {
    std::string tree;
    ClassificationMiddleware::Stats stats;
    std::vector<ClassificationMiddleware::BatchTrace> trace;
    std::vector<ClassificationMiddleware::SampleDecision> decisions;
    double simulated_seconds = 0;
  };

  GrowOutput Grow(const MiddlewareConfig& config) {
    GrowOutput out;
    server_->ResetCostCounters();
    auto mw = ClassificationMiddleware::Create(server_.get(), "data", config);
    EXPECT_TRUE(mw.ok()) << mw.status().ToString();
    DecisionTreeClient client(dataset_->schema(), TreeClientConfig());
    auto tree = client.Grow(mw->get(), dataset_->TotalRows());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    if (tree.ok()) out.tree = tree->ToString(1 << 20);
    out.stats = (*mw)->stats();
    out.trace = (*mw)->trace();
    out.decisions = (*mw)->sample_decisions();
    out.simulated_seconds = server_->SimulatedSeconds();
    return out;
  }

  TempDir dir_;
  std::unique_ptr<RandomTreeDataset> dataset_;
  std::unique_ptr<SqlServer> server_;
  std::string staging_;
};

TEST_F(MiddlewareApproxTest, DisabledPathsAreByteIdentical) {
  for (size_t budget : {size_t{64} << 20, size_t{192} << 10}) {
    if (server_->HasSampleTable("data")) {
      ASSERT_TRUE(server_->DropSampleTable("data").ok());
    }
    MiddlewareConfig exact = Config(false);
    exact.memory_budget_bytes = budget;
    GrowOutput baseline = Grow(exact);
    ASSERT_FALSE(baseline.tree.empty());

    // Knob on but no scramble built: nothing may change.
    MiddlewareConfig no_scramble = Config(true);
    no_scramble.memory_budget_bytes = budget;
    GrowOutput without = Grow(no_scramble);
    EXPECT_EQ(without.tree, baseline.tree) << "budget " << budget;
    EXPECT_EQ(without.stats.sample_served_nodes.load(), 0u);

    ASSERT_TRUE(server_->BuildSampleTable("data", 0.3, 7).ok());

    // Scramble present but knob off.
    GrowOutput knob_off = Grow(exact);
    EXPECT_EQ(knob_off.tree, baseline.tree) << "budget " << budget;
    EXPECT_EQ(knob_off.stats.sample_served_nodes.load(), 0u);

    // Knob on, exactness 1.0: Rule 7 short-circuits before routing.
    MiddlewareConfig forced_exact = Config(true);
    forced_exact.memory_budget_bytes = budget;
    forced_exact.approx.exactness = 1.0;
    GrowOutput exactness_one = Grow(forced_exact);
    EXPECT_EQ(exactness_one.tree, baseline.tree) << "budget " << budget;
    EXPECT_EQ(exactness_one.stats.sample_served_nodes.load(), 0u);
    EXPECT_EQ(exactness_one.stats.sample_escalations.load(), 0u);

    // Knob on, env kill-switch thrown.
    MiddlewareConfig approx_on = Config(true);
    approx_on.memory_budget_bytes = budget;
    EnvVarScope env("SQLCLASS_APPROX", "0");
    GrowOutput env_off = Grow(approx_on);
    EXPECT_EQ(env_off.tree, baseline.tree) << "budget " << budget;
    EXPECT_EQ(env_off.stats.sample_served_nodes.load(), 0u);
  }
}

TEST_F(MiddlewareApproxTest, MinNodeRowsKeepsSmallNodesExact) {
  ASSERT_TRUE(server_->BuildSampleTable("data", 0.3, 7).ok());
  GrowOutput baseline = Grow(Config(false));
  MiddlewareConfig config = Config(true);
  config.approx.min_node_rows = dataset_->TotalRows() + 1;
  GrowOutput out = Grow(config);
  EXPECT_EQ(out.tree, baseline.tree);
  EXPECT_EQ(out.stats.sample_served_nodes.load(), 0u);
  EXPECT_EQ(out.stats.sample_escalations.load(), 0u);
}

TEST_F(MiddlewareApproxTest, SampleServingReducesSimulatedCost) {
  ASSERT_TRUE(server_->BuildSampleTable("data", 0.3, 7).ok());
  GrowOutput exact = Grow(Config(false));
  GrowOutput approx = Grow(Config(true));

  EXPECT_GT(approx.stats.sample_served_nodes.load(), 0u);
  EXPECT_LT(approx.simulated_seconds, exact.simulated_seconds);

  // Every gate verdict is on record, and accepted ones line up with the
  // served-nodes counter.
  uint64_t accepted = 0;
  for (const auto& d : approx.decisions) {
    EXPECT_GE(d.node_id, 0);
    if (d.accepted) {
      ++accepted;
      EXPECT_GT(d.gap, d.threshold);
    } else {
      EXPECT_LE(d.gap, d.threshold);
    }
  }
  EXPECT_EQ(accepted, approx.stats.sample_served_nodes.load());
  EXPECT_EQ(approx.decisions.size() - accepted,
            approx.stats.sample_escalations.load());

  // Sample-served batches report the scramble rows they scanned and never
  // hit the server cursor.
  bool any_sample_batch = false;
  for (const auto& trace : approx.trace) {
    if (trace.served_from_sample) {
      any_sample_batch = true;
      EXPECT_GT(trace.rows_scanned, 0u);
    }
  }
  EXPECT_TRUE(any_sample_batch);

  // The grown tree still separates the generated concept: same ballpark
  // node count as the exact tree (approximation may merge or split a few
  // fringe nodes, not collapse the tree).
  EXPECT_FALSE(approx.tree.empty());
}

TEST_F(MiddlewareApproxTest, NoisyDataEscalatesEverything) {
  // Class independent of every attribute: no split's gap can clear a 100x
  // widened confidence interval, so every sampled node must escalate and
  // the tree must equal the exact one.
  TempDir dir;
  Schema schema = MakeSchema({4, 4, 4}, 2);
  std::vector<Row> rows = RandomRows(schema, 3000, 123);
  SqlServer server(dir.path());
  ASSERT_TRUE(server.CreateTable("noise", schema).ok());
  ASSERT_TRUE(server.LoadRows("noise", rows).ok());
  ASSERT_TRUE(server.BuildSampleTable("noise", 0.3, 7).ok());
  const std::string staging = dir.path() + "/staging";
  std::filesystem::create_directories(staging);

  auto grow = [&](bool approx_on) {
    MiddlewareConfig config;
    config.staging_dir = staging;
    config.approx.enable = approx_on;
    config.approx.min_node_rows = 100;
    config.approx.exactness = 0.99;  // 100x threshold
    auto mw = ClassificationMiddleware::Create(&server, "noise", config);
    EXPECT_TRUE(mw.ok());
    DecisionTreeClient client(schema, TreeClientConfig());
    auto tree = client.Grow(mw->get(), rows.size());
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    return std::make_pair(tree.ok() ? tree->ToString(1 << 20) : "",
                          ClassificationMiddleware::Stats((*mw)->stats()));
  };

  auto [exact_tree, exact_stats] = grow(false);
  auto [approx_tree, approx_stats] = grow(true);
  EXPECT_EQ(approx_tree, exact_tree);
  EXPECT_EQ(approx_stats.sample_served_nodes.load(), 0u);
  EXPECT_GT(approx_stats.sample_escalations.load(), 0u);
}

TEST_F(MiddlewareApproxTest, PersistentOpenFaultFallsBackToExactPath) {
  FaultScope guard;
  ASSERT_TRUE(server_->BuildSampleTable("data", 0.3, 7).ok());
  GrowOutput baseline = Grow(Config(false));

  FaultInjector::PointConfig fault;  // unbounded: every open fails
  FaultInjector::Global().Arm(faults::kSampleOpen, fault);
  GrowOutput out = Grow(Config(true));
  FaultInjector::Global().Reset();

  EXPECT_EQ(out.tree, baseline.tree);
  EXPECT_EQ(out.stats.sample_served_nodes.load(), 0u);
  EXPECT_GT(out.stats.sample_fallbacks.load(), 0u);
  bool saw_fallback = false;
  for (const auto& trace : out.trace) {
    if (trace.counts.sample_fallbacks > 0) {
      saw_fallback = true;
      // The batch was re-serviced by the exact path in the same pass.
      EXPECT_FALSE(trace.served_from_sample);
    }
  }
  EXPECT_TRUE(saw_fallback);
}

TEST_F(MiddlewareApproxTest, TransientReadFaultRecoversAndKeepsSampling) {
  FaultScope guard;
  ASSERT_TRUE(server_->BuildSampleTable("data", 0.3, 7).ok());
  GrowOutput baseline = Grow(Config(false));

  FaultInjector::PointConfig fault;
  fault.times = 1;  // only the first payload read fails
  FaultInjector::Global().Arm(faults::kSampleRead, fault);
  GrowOutput out = Grow(Config(true));
  FaultInjector::Global().Reset();

  ASSERT_FALSE(out.tree.empty());
  EXPECT_EQ(out.stats.sample_fallbacks.load(), 1u);
  // After the fallback the reader reopens and later batches sample again.
  // (No cost assertion: the wasted pass plus the unstaged fallback scan can
  // outweigh the later savings on an instance this small.)
  EXPECT_GT(out.stats.sample_served_nodes.load(), 0u);
  (void)baseline;
}

}  // namespace
}  // namespace sqlclass
