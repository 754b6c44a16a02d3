#ifndef SQLCLASS_BENCH_BENCH_UTIL_H_
#define SQLCLASS_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>

#include "common/env.h"
#include "common/json_writer.h"
#include "common/stopwatch.h"
#include "datagen/load.h"
#include "middleware/middleware.h"
#include "mining/tree_client.h"
#include "server/server.h"

namespace sqlclass {
namespace bench {

/// Aborts the bench process when setup work fails. Benchmarks must not keep
/// timing after a failed fixture step — the numbers would silently describe
/// a different (often empty) workload.
inline void CheckOk(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "bench setup failed: %s\n",
                 status.ToString().c_str());
    std::abort();
  }
}

/// Scratch directory for one bench process, removed on destruction.
class ScopedDir {
 public:
  explicit ScopedDir(const std::string& tag) {
    path_ = (std::filesystem::temp_directory_path() /
             ("sqlclass_bench_" + tag + "_" + std::to_string(getpid())))
                .string();
    std::filesystem::create_directories(path_);
  }
  ~ScopedDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The flags every JSON-writing bench takes.
struct BenchArgs {
  bool smoke = false;     // --smoke: tiny instance for the `perf` ctest run
  std::string dump_path;  // --dump=FILE: also write the results as JSON
};

/// Parses `--smoke` and `--dump=FILE`. Any other argument — a misspelt
/// flag, `--dump` without `=FILE` — prints the usage line and exits 2
/// before the bench does any work.
inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.starts_with("--dump=") && arg.size() > 7) {
      args.dump_path = arg.substr(7);
    } else {
      std::fprintf(stderr, "unknown argument: %s\nusage: %s [--smoke] "
                   "[--dump=FILE]\n", arg.c_str(), argv[0]);
      std::exit(2);
    }
  }
  return args;
}

/// FNV-1a of `text`; benches record FNV-1a of DecisionTree::Signature() as
/// the tree hash.
inline uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 14695981039346656037ull;
  for (unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  return hash;
}

/// Scale multiplier for experiment sizes: benches default to a laptop-fast
/// scale whose *ratios* (memory:data, CC:data) match the paper; set
/// SQLCLASS_BENCH_SCALE=4 (say) to run larger instances. A value that is
/// not a positive number (`abc`, `4x`, `0`) exits 2 before any work.
inline double BenchScale() {
  const char* env = std::getenv("SQLCLASS_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const std::optional<double> scale = ParseEnvDouble(env);
  if (!scale || *scale <= 0) {
    std::fprintf(stderr, "SQLCLASS_BENCH_SCALE=%s: not a positive number\n",
                 env);
    std::exit(2);
  }
  return *scale;
}

struct TreeRunResult {
  bool ok = false;
  double sim_seconds = 0;
  double wall_seconds = 0;
  int nodes = 0;
  int leaves = 0;
  int depth = 0;
  uint64_t tree_hash = 0;  // Fnv1a of the tree's signature
  std::optional<DecisionTree> tree;
  ClassificationMiddleware::Stats mw_stats;
  uint64_t requeues = 0;  // nodes evicted mid-batch and requeued
  std::vector<ClassificationMiddleware::SampleDecision> sample_decisions;
  int files_created = 0;
  int memory_stores_created = 0;
  CostCounters counters;
};

/// Grows a full tree through an arbitrary provider, measuring simulated and
/// wall time. Resets the server's cost counters first.
inline TreeRunResult GrowTree(SqlServer* server, const Schema& schema,
                              uint64_t rows, CcProvider* provider,
                              TreeClientConfig client_config = {}) {
  TreeRunResult result;
  server->ResetCostCounters();
  Stopwatch watch;
  DecisionTreeClient client(schema, client_config);
  auto tree = client.Grow(provider, rows);
  if (!tree.ok()) {
    std::fprintf(stderr, "grow failed: %s\n",
                 tree.status().ToString().c_str());
    return result;
  }
  result.ok = true;
  result.wall_seconds = watch.ElapsedSeconds();
  result.sim_seconds = server->SimulatedSeconds();
  result.counters = server->cost_counters();
  result.nodes = tree->num_nodes();
  result.leaves = tree->CountLeaves();
  result.depth = tree->MaxDepth();
  result.tree_hash = Fnv1a(tree->Signature());
  result.tree = std::move(*tree);
  return result;
}

/// Grows through a freshly created middleware with `config`.
inline TreeRunResult GrowTreeWithMiddleware(
    SqlServer* server, const std::string& table, const Schema& schema,
    uint64_t rows, MiddlewareConfig config,
    TreeClientConfig client_config = {}) {
  auto middleware =
      ClassificationMiddleware::Create(server, table, std::move(config));
  if (!middleware.ok()) {
    std::fprintf(stderr, "middleware: %s\n",
                 middleware.status().ToString().c_str());
    return TreeRunResult{};
  }
  TreeRunResult result =
      GrowTree(server, schema, rows, middleware->get(), client_config);
  result.mw_stats = (*middleware)->stats();
  for (const auto& batch : (*middleware)->trace()) {
    result.requeues += static_cast<uint64_t>(batch.requeued);
  }
  result.sample_decisions = (*middleware)->sample_decisions();
  result.files_created = (*middleware)->staging().files_created();
  result.memory_stores_created =
      (*middleware)->staging().memory_stores_created();
  return result;
}

inline double Mb(uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

}  // namespace bench
}  // namespace sqlclass

#endif  // SQLCLASS_BENCH_BENCH_UTIL_H_
