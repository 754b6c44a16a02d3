// Approximate counting (scheduler Rule 7): tree growth served from a
// persistent scramble with confidence-bounded escalation, against the exact
// middleware on the Figure-6 census workload. Sweeps sampling ratio x gate
// confidence and reports simulated cost reduction, escalation rate (overall
// and per tree level), node agreement with the exact tree, and holdout
// accuracy. The exactness=1.0 leg must stay byte-identical to the exact
// baseline — that identity is this bench's hard invariant.
//
// Flags:
//   --smoke        tiny instance for the `perf`-labeled ctest smoke run
//   --dump=FILE    also write the results as JSON (BENCH_approx.json)

#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/census.h"
#include "mining/evaluate.h"
#include "mining/tree.h"

using namespace sqlclass;
using namespace sqlclass::bench;

namespace {

struct GrowOutcome {
  bool ok = false;
  std::string tree_string;
  DecisionTree tree;
  double sim_seconds = 0;
  double wall_seconds = 0;
  double holdout_accuracy = 0;
  ClassificationMiddleware::Stats stats;
  std::vector<ClassificationMiddleware::SampleDecision> decisions;

  explicit GrowOutcome(const Schema& schema) : tree(schema) {}
};

GrowOutcome GrowOnce(SqlServer* server, const Schema& schema, uint64_t rows,
                     const MiddlewareConfig& config,
                     const TreeClientConfig& client_config,
                     const std::vector<Row>& holdout) {
  GrowOutcome out(schema);
  auto middleware = ClassificationMiddleware::Create(server, "census", config);
  if (!middleware.ok()) {
    std::fprintf(stderr, "middleware: %s\n",
                 middleware.status().ToString().c_str());
    return out;
  }
  server->ResetCostCounters();
  Stopwatch watch;
  DecisionTreeClient client(schema, client_config);
  auto tree = client.Grow(middleware->get(), rows);
  if (!tree.ok()) {
    std::fprintf(stderr, "grow: %s\n", tree.status().ToString().c_str());
    return out;
  }
  out.ok = true;
  out.wall_seconds = watch.ElapsedSeconds();
  out.sim_seconds = server->SimulatedSeconds();
  out.tree = std::move(tree).value();
  out.tree_string = out.tree.ToString(1 << 22);
  out.stats = (*middleware)->stats();
  out.decisions = (*middleware)->sample_decisions();
  out.holdout_accuracy =
      EvaluateClassifier(
          [&](const Row& row) {
            auto cls = out.tree.Classify(row);
            return cls.ok() ? *cls : Value{0};
          },
          holdout, schema.class_column())
          .Accuracy();
  return out;
}

/// Fraction of the exact tree's internal nodes whose (attr, value) split the
/// approximate tree reproduces at the same structural position.
double NodeAgreement(const DecisionTree& exact, const DecisionTree& approx) {
  int internal = 0;
  int matched = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};  // (exact id, approx id)
  while (!stack.empty()) {
    auto [eid, aid] = stack.back();
    stack.pop_back();
    const TreeNode& enode = exact.node(eid);
    if (enode.state != NodeState::kPartitioned) continue;
    ++internal;
    const TreeNode& anode = approx.node(aid);
    if (anode.state != NodeState::kPartitioned ||
        anode.split_attr != enode.split_attr ||
        anode.split_value != enode.split_value ||
        anode.children.size() != enode.children.size()) {
      // The subtree diverges: every exact internal below still counts
      // against the agreement (as a miss).
      std::vector<int> below(enode.children.begin(), enode.children.end());
      while (!below.empty()) {
        const TreeNode& miss = exact.node(below.back());
        below.pop_back();
        if (miss.state != NodeState::kPartitioned) continue;
        ++internal;
        below.insert(below.end(), miss.children.begin(), miss.children.end());
      }
      continue;
    }
    ++matched;
    for (size_t i = 0; i < enode.children.size(); ++i) {
      stack.push_back({enode.children[i], anode.children[i]});
    }
  }
  return internal > 0 ? static_cast<double>(matched) / internal : 1.0;
}

/// Escalation counts bucketed by the depth of the gated node.
struct LevelStats {
  std::vector<uint64_t> served;
  std::vector<uint64_t> escalated;
};

LevelStats PerLevel(const DecisionTree& tree,
                    const std::vector<ClassificationMiddleware::SampleDecision>&
                        decisions) {
  LevelStats out;
  for (const auto& d : decisions) {
    if (d.node_id < 0 || d.node_id >= tree.num_nodes()) continue;
    const size_t depth = static_cast<size_t>(tree.node(d.node_id).depth);
    if (out.served.size() <= depth) {
      out.served.resize(depth + 1, 0);
      out.escalated.resize(depth + 1, 0);
    }
    (d.accepted ? out.served : out.escalated)[depth] += 1;
  }
  return out;
}

struct ApproxCell {
  double ratio = 0;
  double confidence = 0;
  double scramble_build_sim = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, dump_path] = ParseBenchArgs(argc, argv);

  ScopedDir dir("approx");
  SqlServer server(dir.path());

  const uint64_t rows =
      static_cast<uint64_t>((smoke ? 4000 : 40000) * BenchScale());
  const uint64_t holdout_rows = smoke ? 2000 : 10000;

  CensusParams params;
  params.rows = rows + holdout_rows;
  // Sharper segment structure than the generator default: the gate serves a
  // node only when its top split clears a confidence interval, so the bench
  // needs data whose splits carry real signal. (At the defaults the exact
  // tree itself barely beats chance — every split is noise-level, and the
  // honest gate escalates nearly everything.)
  params.peak = 0.9;
  params.class_noise = 0.05;
  auto dataset = CensusDataset::Create(params);
  if (!dataset.ok()) return 1;
  const Schema& schema = (*dataset)->schema();

  // One pool, split in two: the first `rows` train, the tail is the
  // holdout. (The generator's seed drives the segment *structure*, not just
  // the row draws, so generating a "fresh" holdout under seed+1 would
  // sample a different distribution entirely.)
  std::vector<Row> pool;
  if (!(*dataset)->Generate(CollectInto(&pool)).ok()) return 1;
  std::vector<Row> holdout(pool.begin() + static_cast<ptrdiff_t>(rows),
                           pool.end());
  pool.resize(rows);
  if (!LoadIntoServer(&server, "census", schema,
                      [&](const RowSink& sink) {
                        for (const Row& row : pool) {
                          SQLCLASS_RETURN_IF_ERROR(sink(row));
                        }
                        return Status::OK();
                      })
           .ok()) {
    return 1;
  }
  const uint64_t data_bytes = rows * schema.RowBytes();

  TreeClientConfig client_config;
  client_config.max_depth = smoke ? 5 : 8;

  // Two regimes, both with middleware memory well below data size:
  //  * staged: file staging on — the exact path pays the server transfer
  //    once and then scans shrinking staged files, so sampling can only
  //    save the top-of-tree scans;
  //  * server_only: staging disabled (§4.1.2's "no local disk"
  //    environment) — the exact path re-transfers every frontier from the
  //    server, which is where sample-served levels pay off in full.
  auto make_config = [&](bool staging) {
    MiddlewareConfig config;
    config.memory_budget_bytes = static_cast<size_t>(0.1 * data_bytes);
    config.staging_dir = dir.path();
    config.enable_file_staging = staging;
    config.enable_memory_staging = staging;
    return config;
  };

  std::printf("# Sample-served split selection vs exact counting "
              "(census-like data: %llu rows, %.2f MB, memory %.2f MB)\n",
              (unsigned long long)rows, Mb(data_bytes),
              Mb(make_config(true).memory_budget_bytes));
  std::printf("%-12s %-7s %-6s %11s %9s %8s %8s %9s %9s %10s\n", "regime",
              "ratio", "conf", "sim_s", "sim_x", "served", "escal",
              "esc_rate", "agree", "acc_delta");

  const std::vector<bool> regimes =
      smoke ? std::vector<bool>{false} : std::vector<bool>{true, false};
  const std::vector<double> ratios =
      smoke ? std::vector<double>{0.1}
            : std::vector<double>{0.01, 0.05, 0.1, 0.25};
  const std::vector<double> confidences =
      smoke ? std::vector<double>{0.9}
            : std::vector<double>{0.5, 0.8, 0.95};

  bool identity_ok = true;
  bool any_target_met = false;
  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("approx");
  json.Key("rows");
  json.Int(rows);
  json.Key("data_mb");
  json.Double(Mb(data_bytes));
  json.Key("memory_mb");
  json.Double(Mb(make_config(true).memory_budget_bytes));
  json.Key("note");
  json.String(
      "exact vs scramble-served tree growth (scheduler Rule 7) on the Fig-6 "
      "census workload under a constrained memory budget; sim_reduction is "
      "exact_sim/approx_sim within the same staging regime; staged = file "
      "staging on (the exact path pays the server transfer once), "
      "server_only = staging disabled per §4.1.2's no-local-disk "
      "environment (every exact frontier re-transfers from the server); "
      "escalation_rate is gate rejections over gated nodes; node_agreement "
      "is the fraction of exact internal splits reproduced in place; "
      "accuracy_delta_pp is holdout percentage points relative to the same "
      "regime's exact tree (positive = approx more accurate); the "
      "exactness=1.0 leg must be byte-identical to exact");

  // Exact baselines, one per regime (approx off; any scramble is ignored).
  // deque: GrowOutcome is move-only and its move is not noexcept, which
  // rules out vector relocation.
  std::deque<GrowOutcome> baselines;
  json.Key("exact");
  json.BeginArray();
  for (bool staging : regimes) {
    GrowOutcome exact = GrowOnce(&server, schema, rows, make_config(staging),
                                 client_config, holdout);
    if (!exact.ok) return 1;
    std::printf("%-12s %-7s %-6s %11.3f %9s %8s %8s %9s %9s %10s  "
                "(%d nodes, holdout %.4f)\n",
                staging ? "staged" : "server_only", "exact", "-",
                exact.sim_seconds, "1.00", "-", "-", "-", "-", "-",
                exact.tree.num_nodes(), exact.holdout_accuracy);
    json.BeginObject();
    json.Key("regime");
    json.String(staging ? "staged" : "server_only");
    json.Key("sim_seconds");
    json.Double(exact.sim_seconds);
    json.Key("wall_seconds");
    json.Double(exact.wall_seconds);
    json.Key("nodes");
    json.Int(exact.tree.num_nodes());
    json.Key("holdout_accuracy");
    json.Double(exact.holdout_accuracy);
    json.EndObject();
    baselines.push_back(std::move(exact));
  }
  json.EndArray();
  json.Key("results");
  json.BeginArray();

  bool first_ratio = true;
  for (double ratio : ratios) {
    if (server.HasSampleTable("census") &&
        !server.DropSampleTable("census").ok()) {
      return 1;
    }
    server.ResetCostCounters();
    if (!server.BuildSampleTable("census", ratio, 7).ok()) {
      std::fprintf(stderr, "scramble build failed at ratio %.3f\n", ratio);
      return 1;
    }
    const double build_sim = server.SimulatedSeconds();

    if (first_ratio) {
      first_ratio = false;
      // Identity leg: scramble present, approx on, exactness 1.0 — Rule 7
      // must short-circuit and reproduce the exact tree byte for byte.
      MiddlewareConfig identity_config = make_config(regimes.front());
      identity_config.approx.enable = true;
      identity_config.approx.exactness = 1.0;
      GrowOutcome identity = GrowOnce(&server, schema, rows, identity_config,
                                      client_config, holdout);
      if (!identity.ok) return 1;
      identity_ok = identity.tree_string == baselines.front().tree_string &&
                    identity.stats.sample_served_nodes.load() == 0;
      if (!identity_ok) {
        std::fprintf(stderr,
                     "FAIL: exactness=1.0 run diverged from exact tree\n");
      }
    }

    for (size_t regime = 0; regime < regimes.size(); ++regime) {
    const bool staging = regimes[regime];
    const GrowOutcome& exact = baselines[regime];
    for (double confidence : confidences) {
      MiddlewareConfig config = make_config(staging);
      config.approx.enable = true;
      config.approx.confidence = confidence;
      config.approx.min_node_rows = smoke ? 400 : 2000;
      GrowOutcome run =
          GrowOnce(&server, schema, rows, config, client_config, holdout);
      if (!run.ok) return 1;

      const uint64_t served = run.stats.sample_served_nodes.load();
      const uint64_t escalated = run.stats.sample_escalations.load();
      const uint64_t gated = served + escalated;
      const double esc_rate =
          gated > 0 ? static_cast<double>(escalated) / gated : 0.0;
      const double sim_reduction =
          run.sim_seconds > 0 ? exact.sim_seconds / run.sim_seconds : 0.0;
      const double agreement = NodeAgreement(exact.tree, run.tree);
      const double delta_pp =
          (run.holdout_accuracy - exact.holdout_accuracy) * 100.0;
      const bool meets_target = sim_reduction >= 2.0 && delta_pp >= -0.5;
      any_target_met = any_target_met || meets_target;
      const LevelStats levels = PerLevel(run.tree, run.decisions);

      std::printf("%-12s %-7.3f %-6.2f %11.3f %9.2f %8llu %8llu %9.3f "
                  "%9.3f %+9.2fpp\n",
                  staging ? "staged" : "server_only", ratio, confidence,
                  run.sim_seconds, sim_reduction, (unsigned long long)served,
                  (unsigned long long)escalated, esc_rate, agreement,
                  delta_pp);

      json.BeginObject();
      json.Key("regime");
      json.String(staging ? "staged" : "server_only");
      json.Key("sampling_ratio");
      json.Double(ratio);
      json.Key("confidence");
      json.Double(confidence);
      json.Key("scramble_build_sim_seconds");
      json.Double(build_sim);
      json.Key("sim_seconds");
      json.Double(run.sim_seconds);
      json.Key("wall_seconds");
      json.Double(run.wall_seconds);
      json.Key("sim_reduction");
      json.Double(sim_reduction);
      json.Key("nodes");
      json.Int(run.tree.num_nodes());
      json.Key("sample_served_nodes");
      json.Int(served);
      json.Key("sample_escalations");
      json.Int(escalated);
      json.Key("sample_fallbacks");
      json.Int(run.stats.sample_fallbacks.load());
      json.Key("escalation_rate");
      json.Double(esc_rate);
      json.Key("tree_identical");
      json.Bool(run.tree_string == exact.tree_string);
      json.Key("node_agreement");
      json.Double(agreement);
      json.Key("holdout_accuracy");
      json.Double(run.holdout_accuracy);
      json.Key("accuracy_delta_pp");
      json.Double(delta_pp);
      json.Key("meets_target");
      json.Bool(meets_target);
      json.Key("per_level");
      json.BeginArray();
      for (size_t depth = 0; depth < levels.served.size(); ++depth) {
        const uint64_t level_total =
            levels.served[depth] + levels.escalated[depth];
        json.BeginObject();
        json.Key("depth");
        json.Int(depth);
        json.Key("served");
        json.Int(levels.served[depth]);
        json.Key("escalated");
        json.Int(levels.escalated[depth]);
        json.Key("escalation_rate");
        json.Double(level_total > 0 ? static_cast<double>(
                                          levels.escalated[depth]) /
                                          level_total
                                    : 0.0);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    }
  }

  json.EndArray();
  json.Key("exactness_one_identical");
  json.Bool(identity_ok);
  json.Key("target_met");
  json.Bool(any_target_met);
  json.EndObject();

  if (!dump_path.empty()) {
    const Status dump_status = json.WriteToFile(dump_path);
    if (!dump_status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", dump_path.c_str(),
                   dump_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", dump_path.c_str());
  }

  if (!identity_ok) return 1;
  if (!smoke && !any_target_met) {
    std::fprintf(stderr,
                 "FAIL: no setting reached 2x sim reduction within 0.5pp "
                 "holdout accuracy\n");
    return 1;
  }
  return 0;
}
