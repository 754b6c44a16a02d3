// The paper's evaluation as one table of cells: Fig 4 (memory and database
// size), Fig 5 (CC memory, row scale-up), Fig 6 (file staging), Fig 7
// (attributes, SQL counting), Fig 8 (tree shape), the §5.2.5 index-scan
// study, the DESIGN.md ablations A1-A3 and the §5.1.2 Gaussian variation
// study, followed by the extension figures: ext-bitmap (scheduler Rule 0),
// ext-shard (Rule 8), ext-approx (Rule 7) and ext-parallel (staged grows
// on 1-4 scan workers). A cell is one grow over a generated table through
// one provider — a middleware config, straightforward SQL counting, the
// extract-all file store, or a server-side auxiliary structure — at one
// x-value. One loop grows every cell, prints one line per cell and records
// one JSON object per cell: simulated and wall seconds, tree hash and
// shape, every cost counter and the middleware's scan counts.
//
// The smoke-scale dump is committed as bench/paper_smoke_golden.json;
// tools/check_paper_golden.py (ctest bench_paper_golden) requires a fresh
// run to equal it in every field but those ending in wall_s. A change to
// the cost model on purpose regenerates it:
//   build/bench/bench_paper --smoke --dump=bench/paper_smoke_golden.json
//
// bench_paper exits 1 when a cell breaks one of its rules:
//   - model equivalence (§3.1): cells over the same table and client config
//     grow the same tree, whatever their provider, budget, staging or
//     counting path — except cells whose splits come from the scramble
//     (approx on, exactness < 1);
//   - cells of one invariance group agree on every field but wall time,
//     their parameters and their artifacts' build cost;
//   - no cell records a bitmap, sample or shard fallback, an RPC timeout
//     or a shard worker restart;
//   - at full scale, some ext-bitmap cell is >= 10x cheaper in simulated
//     seconds than its row-scan baseline, and some ext-approx cell >= 2x
//     cheaper than its exact baseline within 0.5 pp of its accuracy.
// A cell names the artifacts it needs (bitmap index, shard set, scramble);
// before it grows, its table carries exactly those, and their build cost is
// recorded as extra.build_sim_s.
//
// Sizes scale the paper's by its memory:data ratios; SQLCLASS_BENCH_SCALE
// enlarges them.
//
// Flags:
//   --smoke        the same grid at 1/4 of the scale
//   --dump=FILE    also write the records as JSON (BENCH_paper.json)

#include <algorithm>
#include <cinttypes>
#include <deque>
#include <map>
#include <sstream>
#include <tuple>
#include <variant>
#include <vector>

#include "baseline/aux_structures.h"
#include "baseline/extract_all.h"
#include "baseline/sql_counting.h"
#include "bench_util.h"
#include "common/random.h"
#include "datagen/census.h"
#include "datagen/gaussian.h"
#include "datagen/random_tree.h"

using namespace sqlclass;
using namespace sqlclass::bench;

namespace {

struct SqlCounting {};  // one UNION-of-GROUP-BY query per node (Fig 7)
struct ExtractAll {};   // a client file store re-read every round (Fig 8a)
using Provider =
    std::variant<MiddlewareConfig, SqlCounting, ExtractAll, AuxConfig>;

// The derived structures a cell needs on its table.
struct Artifacts {
  bool bitmap = false;        // per-value bitmap index (Rule 0)
  uint32_t shards = 0;        // shard set of this many shards (Rule 8) ...
  bool replicas = false;      // ... with a replica file per shard
  double sample_ratio = 0;    // scramble at this sampling ratio (Rule 7) ...
  uint64_t sample_seed = 0;   // ... drawn with this seed

  bool operator==(const Artifacts&) const = default;
};

// A generated table, loaded once and shared by every cell that names it.
struct Table {
  std::string name;
  Schema schema;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  std::vector<Row> eval_rows;  // accuracy is measured on these rows
};

struct GridCell {
  std::string figure;
  std::string series;
  std::string x_name;
  double x = 0;
  const Table* table = nullptr;
  Provider provider;
  int max_depth = 0;  // the client config: TreeClientConfig::max_depth
  Artifacts artifacts;
  std::map<std::string, double> params;  // further parameters, recorded
  // Cells of one invariance group record the same outcome, wall time and
  // artifact build cost aside.
  std::string group;
  int baseline = -1;  // the cell this one is measured against
};

// Uniform rows over eight 8-valued attributes and a 3-valued class.
struct UniformParams {
  uint64_t rows = 0;
  uint64_t seed = 0;
};

class UniformDataset {
 public:
  static StatusOr<std::unique_ptr<UniformDataset>> Create(
      const UniformParams& params) {
    std::vector<AttributeDef> attrs(9);
    for (int c = 0; c < 9; ++c) {
      attrs[c].name = c < 8 ? "A" + std::to_string(c + 1) : "class";
      attrs[c].cardinality = c < 8 ? 8 : 3;
    }
    return std::make_unique<UniformDataset>(params,
                                            Schema(std::move(attrs), 8));
  }
  UniformDataset(const UniformParams& params, Schema schema)
      : params_(params), schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  uint64_t TotalRows() const { return params_.rows; }
  Status Generate(const RowSink& sink) const {
    Random rng(params_.seed);
    Row row(schema_.num_columns());
    for (uint64_t i = 0; i < params_.rows; ++i) {
      for (int c = 0; c < schema_.num_columns(); ++c) {
        row[c] = static_cast<Value>(
            rng.Uniform(schema_.attribute(c).cardinality));
      }
      SQLCLASS_RETURN_IF_ERROR(sink(row));
    }
    return Status::OK();
  }

 private:
  UniformParams params_;
  Schema schema_;
};

class Grid {
 public:
  explicit Grid(SqlServer* server) : server_(server) {}

  // Generates `params` into table `name` unless that table is loaded. The
  // last `holdout` generated rows are not loaded but kept to measure
  // accuracy on; `keep_rows` keeps the loaded rows for that too.
  template <typename Dataset, typename Params>
  const Table& Load(const std::string& name, const Params& params,
                    bool keep_rows = false, uint64_t holdout = 0) {
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second;
    auto dataset = Dataset::Create(params);
    CheckOk(dataset.status());
    const Dataset& ds = **dataset;
    const uint64_t rows = ds.TotalRows() - holdout;
    Table table{name, ds.schema(), rows, rows * ds.schema().RowBytes(), {}};
    uint64_t seen = 0;
    CheckOk(LoadIntoServer(
        server_, name, ds.schema(), [&](const RowSink& sink) {
          return ds.Generate([&](const Row& row) {
            const bool held_out = seen++ >= rows;
            if (held_out || keep_rows) table.eval_rows.push_back(row);
            return held_out ? Status::OK() : sink(row);
          });
        }));
    return tables_.emplace(name, std::move(table)).first->second;
  }

  GridCell& Add(std::string figure, std::string series, std::string x_name,
                double x, const Table& table, Provider provider,
                int max_depth = 0) {
    GridCell& cell = cells_.emplace_back();
    cell.figure = std::move(figure);
    cell.series = std::move(series);
    cell.x_name = std::move(x_name);
    cell.x = x;
    cell.table = &table;
    cell.provider = std::move(provider);
    cell.max_depth = max_depth;
    return cell;
  }

  int size() const { return static_cast<int>(cells_.size()); }
  const std::vector<GridCell>& cells() const { return cells_; }

 private:
  SqlServer* server_;
  std::map<std::string, Table> tables_;
  std::vector<GridCell> cells_;
};

MiddlewareConfig Mw(size_t memory, bool file_staging, bool memory_staging) {
  MiddlewareConfig config;
  config.memory_budget_bytes = memory;
  config.enable_file_staging = file_staging;
  config.enable_memory_staging = memory_staging;
  return config;
}

std::string Int(double value) {
  return std::to_string(static_cast<int>(value));
}

// The grid: per figure, its tables and its cells, in output order.
void BuildGrid(double scale, Grid* g) {
  // Fig 4 (§5.2.1): left, memory swept at fixed data; right, data swept at
  // a small and a large fixed memory. Memory staging ("caching") on or off;
  // file staging off to isolate it.
  const auto fig4_table = [&](double cases) -> const Table& {
    RandomTreeParams params;  // paper defaults: 25 attrs, ~4 values, 10 classes
    params.num_leaves = static_cast<int>(200 * scale);
    params.cases_per_leaf = cases;
    params.seed = 4401;
    return g->Load<RandomTreeDataset>("fig4_cases" + Int(cases), params);
  };
  const Table& fig4 = fig4_table(100);
  for (double fraction : {0.15, 0.3, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0}) {
    const size_t memory = static_cast<size_t>(fraction * fig4.bytes);
    g->Add("fig4-left", "caching", "mem_over_data", fraction, fig4,
           Mw(memory, false, true));
    g->Add("fig4-left", "no_caching", "mem_over_data", fraction, fig4,
           Mw(memory, false, false));
  }
  const size_t small_memory = static_cast<size_t>(0.12 * fig4.bytes);
  const size_t large_memory = static_cast<size_t>(0.45 * fig4.bytes);
  for (double cases : {25.0, 50.0, 100.0, 150.0, 200.0}) {
    const Table& table = fig4_table(cases);
    for (const auto& [series, memory, caching] :
         {std::tuple{"small_mem_cache", small_memory, true},
          std::tuple{"small_mem_nocache", small_memory, false},
          std::tuple{"large_mem_cache", large_memory, true},
          std::tuple{"large_mem_nocache", large_memory, false}}) {
      g->Add("fig4-right", series, "cases_per_leaf", cases, table,
             Mw(memory, false, caching));
    }
  }

  // Fig 5 (§5.2.1, §5.2.3): (a) CC memory below one frontier's tables, no
  // staging, so a level takes many scans; (b) rows scaled up at a fixed
  // budget (the 60-case table's size) with memory staging on.
  const auto fig5_table = [&](double cases) -> const Table& {
    RandomTreeParams params;
    params.num_leaves = static_cast<int>(200 * scale);
    params.cases_per_leaf = cases;
    params.seed = 5501;
    return g->Load<RandomTreeDataset>("fig5_cases" + Int(cases), params);
  };
  const Table& fig5 = fig5_table(60);
  for (double kb : {24.0, 32.0, 48.0, 64.0, 96.0, 160.0, 320.0, 640.0}) {
    g->Add("fig5a", "no_staging", "memory_kb", kb * scale, fig5,
           Mw(static_cast<size_t>(kb * 1024 * scale), false, false));
  }
  for (double cases : {15.0, 30.0, 60.0, 120.0, 240.0, 480.0}) {
    g->Add("fig5b", "caching", "cases_per_leaf", cases, fig5_table(cases),
           Mw(static_cast<size_t>(fig5.bytes), false, true));
  }

  // Fig 6 (§5.2.2): four file-staging configurations on census-like data,
  // depth 8 (the paper's ~300-node tree), across memory sizes.
  CensusParams census;
  census.rows = static_cast<uint64_t>(30000 * scale);
  const Table& fig6 = g->Load<CensusDataset>("census", census);
  const std::tuple<const char*, double, bool> kStaging[] = {
      {"file_per_node", 1.0, false},         // a new file per active node
      {"one_file", 0.0, false},              // one file, re-scanned
      {"split_at_50", 0.5, false},           // split below 50% coverage
      {"split_at_50_plus_mem", 0.5, true},   // ... plus memory staging
  };
  for (double fraction : {0.03, 0.05, 0.1, 0.4, 1.2}) {
    for (const auto& [series, threshold, memory_staging] : kStaging) {
      MiddlewareConfig config = Mw(static_cast<size_t>(fraction * fig6.bytes),
                                   true, memory_staging);
      config.file_split_threshold = threshold;
      g->Add("fig6", series, "mem_over_data", fraction, fig6, config, 8);
    }
  }

  // Fig 7 (§5.2.3): binary attributes. The cursor's budget is 0.9x the
  // 10-attribute data (the paper's fixed 32 MB), so caching stops being
  // free as attributes grow; SQL counting runs on a far smaller table, as
  // in the paper.
  const auto binary_table = [&](const std::string& name, int attrs,
                                int leaves, double cases) -> const Table& {
    RandomTreeParams params;
    params.num_attributes = attrs;
    params.mean_values_per_attribute = 2.0;
    params.values_stddev = 0.0;
    params.num_leaves = leaves;
    params.cases_per_leaf = cases;
    params.seed = 7701;
    return g->Load<RandomTreeDataset>(name + Int(attrs), params);
  };
  const int fig7_leaves = static_cast<int>(50 * scale);
  for (int attrs : {10, 25, 50, 75, 100}) {
    const Table& table = binary_table("fig7_attrs", attrs, fig7_leaves, 60);
    const size_t memory = static_cast<size_t>(
        0.9 * static_cast<double>(table.rows) * 11 * sizeof(Value));
    g->Add("fig7", "cursor_cache", "attributes", attrs, table,
           Mw(memory, false, true));
    g->Add("fig7", "cursor_nocache", "attributes", attrs, table,
           Mw(memory, false, false));
    g->Add("fig7", "sql_counting", "attributes", attrs,
           binary_table("fig7_small_attrs", attrs,
                        std::max(4, fig7_leaves / 8), 25),
           SqlCounting{});
  }

  // Fig 8a (§5.2.4): a fully lop-sided binary generating tree, so the late
  // rounds (tiny active set, where the server's WHERE clause pays and full
  // file re-reads do not) dominate: server cursor vs client file store.
  for (int values : {2, 4, 8, 12, 16}) {
    RandomTreeParams params;
    params.num_leaves = static_cast<int>(150 * scale);
    params.cases_per_leaf = 60;
    params.num_attributes = 40;
    params.mean_values_per_attribute = values;
    params.values_stddev = 0.0;
    params.skew = 1.0;
    params.complete_splits = false;
    params.seed = 8801;
    const Table& table =
        g->Load<RandomTreeDataset>("fig8a_values" + Int(values), params);
    g->Add("fig8a", "cursor_nocache", "values", values, table,
           Mw(1ull << 20, false, false));
    g->Add("fig8a", "file_store", "values", values, table, ExtractAll{});
  }

  // Fig 8b (§5.2.4): more generating leaves at a fixed data size, CC memory
  // 0.4x the data (the paper's 8 MB for 10 MB).
  const double total_cases = 12000 * scale;
  for (int leaves : {25, 50, 100, 200, 400}) {
    RandomTreeParams params;
    params.num_leaves = leaves;
    params.cases_per_leaf = total_cases / leaves;
    params.seed = 8802;
    const Table& table =
        g->Load<RandomTreeDataset>("fig8b_leaves" + Int(leaves), params);
    const size_t memory =
        static_cast<size_t>(0.4 * table.rows * table.schema.RowBytes());
    g->Add("fig8b", "caching", "leaves", leaves, table,
           Mw(memory, false, true));
    g->Add("fig8b", "no_caching", "leaves", leaves, table,
           Mw(memory, false, false));
  }

  // §5.2.5 / §4.3.3: a long thin subtree (high skew) is the best case for
  // server-side structures; they are built at the paper's ~30% onset, with
  // and without charging their construction.
  RandomTreeParams thin;
  thin.num_attributes = 30;
  thin.num_leaves = static_cast<int>(60 * scale);
  thin.cases_per_leaf = 150;
  thin.skew = 1.0;
  thin.seed = 9901;
  const Table& sec525 = g->Load<RandomTreeDataset>("thin_subtree", thin);
  const std::pair<const char*, AuxMode> kAux[] = {
      {"plain_cursor_scans", AuxMode::kNone},
      {"temp_table_copy", AuxMode::kTempTableCopy},
      {"tid_join", AuxMode::kTidJoin},
      {"keyset_cursor_proc", AuxMode::kKeysetProc},
  };
  for (const auto& [series, mode] : kAux) {
    for (bool idealized : {false, true}) {
      if (mode == AuxMode::kNone && idealized) continue;
      AuxConfig config;
      config.mode = mode;
      config.build_threshold = 0.3;
      config.free_construction = idealized;
      config.rebuild_factor = 0.33;  // keep the structure tracking D'
      g->Add("sec5.2.5", series, "idealized", idealized, sec525, config);
    }
  }

  // Ablations (DESIGN.md): A1 scheduler order under tight CC memory, A2
  // filter pushdown (§4.3.1), A3 file-split threshold (§4.3.2).
  RandomTreeParams ablation_params;
  ablation_params.num_leaves = static_cast<int>(150 * scale);
  ablation_params.cases_per_leaf = 80;
  ablation_params.seed = 1201;
  const Table& ablation =
      g->Load<RandomTreeDataset>("ablation", ablation_params);
  for (const auto& [series, policy] :
       {std::pair{"smallest_cc_first", OrderPolicy::kSmallestCcFirst},
        std::pair{"fifo", OrderPolicy::kFifo},
        std::pair{"largest_cc_first", OrderPolicy::kLargestCcFirst}}) {
    MiddlewareConfig config = Mw(48 << 10, false, false);
    config.order_policy = policy;
    g->Add("A1", series, "cc_memory_kb", 48, ablation, config);
  }
  for (bool pushdown : {true, false}) {
    MiddlewareConfig config = Mw(4ull << 20, false, false);
    config.enable_filter_pushdown = pushdown;
    g->Add("A2", "filter_pushdown", "enabled", pushdown, ablation, config);
  }
  for (double threshold : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    MiddlewareConfig config =
        Mw(static_cast<size_t>(0.08 * ablation.bytes), true, false);
    config.file_split_threshold = threshold;
    g->Add("A3", "file_staging", "split_threshold", threshold, ablation,
           config);
  }

  // §5.1.2: Gaussian mixtures with dimensions or components dropped; the
  // same seed makes lower-dimensional tables projections of larger ones.
  const uint64_t samples = static_cast<uint64_t>(800 * scale);
  const auto gaussian = [&](int dims, int classes) -> const Table& {
    GaussianMixtureParams params;
    params.dimensions = dims;
    params.num_classes = classes;
    params.samples_per_class = samples;
    params.seed = 100;
    return g->Load<GaussianMixtureDataset>(
        "gauss_d" + Int(dims) + "_k" + Int(classes), params,
        /*keep_rows=*/true);
  };
  for (int dims : {10, 25, 50, 100}) {
    g->Add("gaussian", "dims", "dimensions", dims, gaussian(dims, 10),
           Mw(8ull << 20, true, true), 10);
  }
  for (int classes : {2, 4, 6, 10}) {
    g->Add("gaussian", "classes", "classes", classes, gaussian(25, classes),
           Mw(8ull << 20, true, true), 10);
  }
}

// The extension figures: the counting paths beyond the paper. Each loads
// its own copy of its table, so no paper cell sees its artifacts.
void BuildExtensions(double scale, Grid* g) {
  // ext-bitmap (Rule 0): row scans against AND + popcount over the bitmap
  // index on the Fig-6 census table, at the same memory; the bitmap path
  // charges per index word instead of per cursor row.
  CensusParams census;
  census.rows = static_cast<uint64_t>(30000 * scale);
  const Table& bitmap = g->Load<CensusDataset>("census_bitmap", census);
  for (double fraction : {0.05, 0.1, 1.2}) {
    MiddlewareConfig config;
    config.memory_budget_bytes = static_cast<size_t>(fraction * bitmap.bytes);
    config.use_bitmap_index = false;
    const std::map<std::string, double> params = {
        {"memory_mb", Mb(config.memory_budget_bytes)}};
    const int row_scan = g->size();
    g->Add("ext-bitmap", "row_scan", "mem_over_data", fraction, bitmap, config,
           8)
        .params = params;
    config.use_bitmap_index = true;
    GridCell& cell = g->Add("ext-bitmap", "bitmap", "mem_over_data", fraction,
                            bitmap, config, 8);
    cell.artifacts.bitmap = true;
    cell.params = params;
    cell.baseline = row_scan;
  }

  // ext-shard (Rule 8): the census table in 1-8 hash shards, with and
  // without replicas, counted by 1-4 workers in process or in forked
  // workers over pipe RPC. Staging is off so every level is a server batch
  // and every batch fans out. The cost model sees none of these knobs.
  const Table& shard = g->Load<CensusDataset>("census_shard", census);
  const auto sharded = [](bool enable, int workers,
                          ShardTransportKind transport) {
    MiddlewareConfig config;
    config.enable_file_staging = false;
    config.enable_memory_staging = false;
    config.parallel_scan_threads = workers;
    config.sharding.enable = enable;
    config.sharding.min_node_rows = 1;
    config.sharding.transport = transport;
    return config;
  };
  g->Add("ext-shard", "unsharded", "shards", 0, shard,
         sharded(false, 1, ShardTransportKind::kInProcess), 8);
  for (uint32_t shards : {1, 2, 4, 8}) {
    for (bool replicas : {false, true}) {
      for (const auto& [transport, name] :
           {std::pair{ShardTransportKind::kInProcess, "inproc"},
            std::pair{ShardTransportKind::kSubprocess, "subprocess"}}) {
        for (int workers : {1, 2, 4}) {
          GridCell& cell = g->Add(
              "ext-shard",
              std::string(name) + (replicas ? "_replicas" : "") + "_w" +
                  std::to_string(workers),
              "shards", shards, shard, sharded(true, workers, transport), 8);
          cell.artifacts.shards = shards;
          cell.artifacts.replicas = replicas;
          cell.params = {{"workers", workers}, {"replicas", replicas}};
          cell.group = "ext-shard";
        }
      }
    }
  }

  // ext-approx (Rule 7): split selection served from a scramble through
  // the confidence gate, against exact counting, at 0.1x memory with
  // staging on and off (§4.1.2's no-local-disk case, where every exact
  // frontier is re-read from the server). Sharper segments than the
  // default census, so splits carry signal the gate can see; accuracy is
  // measured on held-out rows of the same generator.
  CensusParams sharp;
  sharp.rows = static_cast<uint64_t>(40000 * scale);
  const uint64_t holdout = static_cast<uint64_t>(10000 * scale);
  sharp.rows += holdout;
  sharp.peak = 0.9;
  sharp.class_noise = 0.05;
  const Table& approx = g->Load<CensusDataset>("census_approx", sharp,
                                               /*keep_rows=*/false, holdout);
  const auto gated = [&](bool staging) {
    MiddlewareConfig config;
    config.memory_budget_bytes = static_cast<size_t>(0.1 * approx.bytes);
    config.enable_file_staging = staging;
    config.enable_memory_staging = staging;
    return config;
  };
  const std::map<std::string, double> memory = {
      {"memory_mb", Mb(gated(true).memory_budget_bytes)}};
  const std::pair<bool, const char*> kRegimes[] = {{true, "staged"},
                                                   {false, "server_only"}};
  int exact[2];
  for (int r = 0; r < 2; ++r) {
    exact[r] = g->size();
    g->Add("ext-approx", std::string(kRegimes[r].second) + "_exact",
           "sampling_ratio", 0, approx, gated(kRegimes[r].first), 8)
        .params = memory;
  }
  for (double ratio : {0.01, 0.05, 0.1, 0.25}) {
    const Artifacts scramble{.sample_ratio = ratio, .sample_seed = 7};
    if (ratio == 0.01) {
      // Exactness 1.0 turns the gate off: the exact tree, byte for byte.
      MiddlewareConfig config = gated(true);
      config.approx.enable = true;
      config.approx.exactness = 1.0;
      GridCell& cell = g->Add("ext-approx", "staged_exactness1",
                              "sampling_ratio", ratio, approx, config, 8);
      cell.artifacts = scramble;
      cell.params = memory;
      cell.baseline = exact[0];
    }
    for (int r = 0; r < 2; ++r) {
      for (double confidence : {0.5, 0.8, 0.95}) {
        MiddlewareConfig config = gated(kRegimes[r].first);
        config.approx.enable = true;
        config.approx.confidence = confidence;
        config.approx.min_node_rows = static_cast<uint64_t>(2000 * scale);
        char series[48];
        std::snprintf(series, sizeof(series), "%s_conf%g",
                      kRegimes[r].second, confidence);
        GridCell& cell = g->Add("ext-approx", series, "sampling_ratio", ratio,
                                approx, config, 8);
        cell.artifacts = scramble;
        cell.params = memory;
        cell.params["confidence"] = confidence;
        cell.baseline = exact[r];
      }
    }
  }

  // ext-parallel: depth-4 staged grows on 1-4 scan workers, with a CC
  // budget tight enough that batches evict nodes mid-scan and requeue them.
  UniformParams uniform;
  uniform.rows = static_cast<uint64_t>(500000 * scale);
  uniform.seed = uniform.rows + 7;
  const Table& staged = g->Load<UniformDataset>("uniform", uniform);
  for (int threads : {1, 2, 3, 4}) {
    MiddlewareConfig config;
    config.memory_budget_bytes = 16 << 10;
    config.parallel_scan_threads = threads;
    g->Add("ext-parallel", "staged_grow", "scan_threads", threads, staged,
           config, 4)
        .group = "ext-parallel";
  }
}

// Fraction of the exact tree's internal nodes whose split the other tree
// reproduces at the same position; a diverging subtree counts as misses.
double NodeAgreement(const DecisionTree& exact, const DecisionTree& other) {
  int internal = 0;
  int matched = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};  // (exact id, other id)
  while (!stack.empty()) {
    const auto [eid, oid] = stack.back();
    stack.pop_back();
    const TreeNode& enode = exact.node(eid);
    if (enode.state != NodeState::kPartitioned) continue;
    ++internal;
    const TreeNode& onode = other.node(oid);
    if (onode.state != NodeState::kPartitioned ||
        onode.split_attr != enode.split_attr ||
        onode.split_value != enode.split_value ||
        onode.children.size() != enode.children.size()) {
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
      stack.push_back({enode.children[i], onode.children[i]});
    }
  }
  return internal > 0 ? static_cast<double>(matched) / internal : 1.0;
}

// The counting paths' own counters, recorded for every extension cell: the
// requeues of batches that evicted nodes, each path's scans and fallbacks,
// and the sample gate's decisions, overall and per tree depth.
void RecordPathCounters(const TreeRunResult& r,
                        std::map<std::string, double>* extra) {
  const ClassificationMiddleware::Stats& s = r.mw_stats;
  const std::pair<const char*, uint64_t> counters[] = {
      {"requeues", r.requeues},
      {"sql_fallbacks", s.sql_fallbacks.load()},
      {"bitmap_scans", s.bitmap_scans.load()},
      {"bitmap_fallbacks", s.bitmap_fallbacks.load()},
      {"sample_served_nodes", s.sample_served_nodes.load()},
      {"sample_escalations", s.sample_escalations.load()},
      {"sample_fallbacks", s.sample_fallbacks.load()},
      {"shard_scans", s.shard_scans.load()},
      {"shard_fallbacks", s.shard_fallbacks.load()},
      {"shard_rpc_timeouts", s.shard_rpc_timeouts.load()},
      {"shard_worker_restarts", s.shard_worker_restarts.load()},
  };
  for (const auto& [key, value] : counters) (*extra)[key] = value;
  const uint64_t gated =
      s.sample_served_nodes.load() + s.sample_escalations.load();
  if (gated > 0) {
    (*extra)["escalation_rate"] =
        static_cast<double>(s.sample_escalations.load()) / gated;
  }
  int deepest = -1;
  for (const auto& d : r.sample_decisions) {
    deepest = std::max(deepest, r.tree->node(d.node_id).depth);
  }
  for (int depth = 0; depth <= deepest; ++depth) {
    (*extra)["served_d" + std::to_string(depth)] = 0;
    (*extra)["escalated_d" + std::to_string(depth)] = 0;
  }
  for (const auto& d : r.sample_decisions) {
    (*extra)[(d.accepted ? "served_d" : "escalated_d") +
             std::to_string(r.tree->node(d.node_id).depth)] += 1;
  }
}

// Grows `cell`; provider-specific numbers go to `extra`.
TreeRunResult Grow(SqlServer* server, const std::string& dir,
                   const GridCell& cell,
                   std::map<std::string, double>* extra) {
  const Table& t = *cell.table;
  TreeClientConfig client;
  client.max_depth = cell.max_depth;
  TreeRunResult result;
  if (const auto* config = std::get_if<MiddlewareConfig>(&cell.provider)) {
    MiddlewareConfig staged = *config;
    staged.staging_dir = dir;
    result = GrowTreeWithMiddleware(server, t.name, t.schema, t.rows, staged,
                                    client);
    if (result.ok && cell.figure.starts_with("ext-")) {
      RecordPathCounters(result, extra);
    }
  } else if (std::holds_alternative<SqlCounting>(cell.provider)) {
    auto provider = SqlCountingProvider::Create(server, t.name);
    CheckOk(provider.status());
    result = GrowTree(server, t.schema, t.rows, provider->get(), client);
  } else if (std::holds_alternative<ExtractAll>(cell.provider)) {
    auto provider = ExtractAllProvider::Create(server, t.name, dir);
    CheckOk(provider.status());
    result = GrowTree(server, t.schema, t.rows, provider->get(), client);
    (*extra)["file_reads"] = (*provider)->file_scans();
  } else {
    const AuxConfig& config = std::get<AuxConfig>(cell.provider);
    auto provider = AuxStructureProvider::Create(server, t.name, config);
    CheckOk(provider.status());
    result = GrowTree(server, t.schema, t.rows, provider->get(), client);
    (*extra)["structures_built"] = (*provider)->structures_built();
    (*extra)["idealized"] = config.free_construction;
  }
  if (result.ok && !t.eval_rows.empty()) {
    auto accuracy = result.tree->Accuracy(t.eval_rows);
    CheckOk(accuracy.status());
    (*extra)["accuracy"] = *accuracy;
  }
  return result;
}

// An artifact set as a table carries it, and what building it cost.
struct BuiltArtifacts {
  Artifacts artifacts;
  double sim_s = 0;
  double wall_s = 0;
};

// Gives `table` exactly the artifacts `want` names: unless it carries just
// those, drops every artifact it has and builds the named ones from a
// zeroed cost meter.
void SyncArtifacts(SqlServer* server, const std::string& table,
                   const Artifacts& want, BuiltArtifacts* built) {
  if (built->artifacts == want) return;
  if (server->HasBitmapIndex(table)) CheckOk(server->DropBitmapIndex(table));
  if (server->HasShardSet(table)) CheckOk(server->DropShardSet(table));
  if (server->HasSampleTable(table)) CheckOk(server->DropSampleTable(table));
  server->ResetCostCounters();
  Stopwatch watch;
  if (want.bitmap) CheckOk(server->BuildBitmapIndex(table));
  if (want.shards > 0) {
    CheckOk(server->BuildShardSet(table, want.shards, ShardScheme::kHashRowId,
                                  want.replicas));
  }
  if (want.sample_ratio > 0) {
    CheckOk(server->BuildSampleTable(table, want.sample_ratio,
                                     want.sample_seed));
  }
  *built = {want, server->SimulatedSeconds(), watch.ElapsedSeconds()};
}

// A grow's outcome as recorded: simulated seconds, tree, cost counters,
// middleware counts and `extra`. With `invariants_only`, the fields an
// invariance group compares: no wall time and no artifact build cost.
void WriteOutcome(const TreeRunResult& r, const std::string& hash,
                  const std::map<std::string, double>& extra,
                  bool invariants_only, JsonWriter* json) {
  const auto real = [&](const std::string& key, double value) {
    json->Key(key);
    json->Double(value);
  };
  const auto count = [&](const std::string& key, uint64_t value) {
    json->Key(key);
    json->Int(value);
  };
  real("sim_s", r.sim_seconds);
  if (!invariants_only) real("wall_s", r.wall_seconds);
  json->Key("tree_hash");
  json->String(hash);
  count("nodes", r.nodes);
  count("leaves", r.leaves);
  count("depth", r.depth);
  json->Key("cost");
  json->BeginObject();
  std::istringstream fields(r.counters.ToString());  // "name=value ..."
  std::string field;
  while (fields >> field) {
    const size_t eq = field.find('=');
    count(field.substr(0, eq), std::stoull(field.substr(eq + 1)));
  }
  json->EndObject();
  json->Key("middleware");
  json->BeginObject();
  count("batches", r.mw_stats.batches);
  count("server_scans", r.mw_stats.server_scans);
  count("file_scans", r.mw_stats.file_scans);
  count("memory_scans", r.mw_stats.memory_scans);
  count("file_splits", r.mw_stats.file_splits);
  count("files_created", r.files_created);
  count("memory_stores_created", r.memory_stores_created);
  json->EndObject();
  json->Key("extra");
  json->BeginObject();
  for (const auto& [key, value] : extra) {
    if (!invariants_only ||
        !(key.ends_with("wall_s") || key.starts_with("build_"))) {
      real(key, value);
    }
  }
  json->EndObject();
}

void WriteRecord(const GridCell& cell, const TreeRunResult& r,
                 const std::string& hash,
                 const std::map<std::string, double>& extra,
                 JsonWriter* json) {
  const auto text = [&](const char* key, const std::string& value) {
    json->Key(key);
    json->String(value);
  };
  json->BeginObject();
  text("figure", cell.figure);
  text("series", cell.series);
  text("x_name", cell.x_name);
  json->Key("x");
  json->Double(cell.x);
  text("table", cell.table->name);
  json->Key("rows");
  json->Int(cell.table->rows);
  json->Key("data_mb");
  json->Double(Mb(cell.table->bytes));
  WriteOutcome(r, hash, extra, /*invariants_only=*/false, json);
  if (!cell.params.empty()) {
    json->Key("params");
    json->BeginObject();
    for (const auto& [key, value] : cell.params) {
      json->Key(key);
      json->Double(value);
    }
    json->EndObject();
  }
  json->EndObject();
}

// Splits come from the scramble: the grown tree may differ from the exact
// one, so the cell is outside the model-equivalence check.
bool SampleServed(const GridCell& cell) {
  const auto* config = std::get_if<MiddlewareConfig>(&cell.provider);
  return config != nullptr && config->approx.enable &&
         config->approx.exactness < 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, dump_path] = ParseBenchArgs(argc, argv);
  const double scale = BenchScale() * (smoke ? 0.25 : 1.0);
  ScopedDir dir("paper");
  SqlServer server(dir.path());
  Grid grid(&server);
  BuildGrid(scale, &grid);
  BuildExtensions(scale, &grid);
  const std::vector<GridCell>& cells = grid.cells();
  std::printf("# paper grid: %zu cells at scale %g\n", cells.size(), scale);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("paper");
  json.Key("scale");
  json.Double(scale);
  json.Key("cells");
  json.BeginArray();
  // Per key, the first value a cell recorded and that cell's label: the
  // tree per (table, client config), the outcome per invariance group.
  using FirstSeen = std::map<std::string, std::pair<std::string, std::string>>;
  FirstSeen first_tree;
  FirstSeen first_outcome;
  std::map<std::string, BuiltArtifacts> built;  // per table
  std::deque<TreeRunResult> results;  // deque: its move may throw
  std::vector<std::map<std::string, double>> extras;
  bool failed = false;
  for (const GridCell& cell : cells) {
    char x[32];
    std::snprintf(x, sizeof(x), "%g", cell.x);
    const std::string label =
        cell.figure + "/" + cell.series + "/" + cell.x_name + "=" + x;
    BuiltArtifacts& artifacts = built[cell.table->name];
    SyncArtifacts(&server, cell.table->name, cell.artifacts, &artifacts);
    std::map<std::string, double> extra;
    TreeRunResult result = Grow(&server, dir.path(), cell, &extra);
    if (!result.ok) return 1;
    if (cell.artifacts != Artifacts{}) {
      extra["build_sim_s"] = artifacts.sim_s;
      extra["build_wall_s"] = artifacts.wall_s;
    }
    if (cell.baseline >= 0) {
      const TreeRunResult& base = results[cell.baseline];
      const auto& base_extra = extras[cell.baseline];
      extra["node_agreement"] = NodeAgreement(*base.tree, *result.tree);
      if (extra.count("accuracy") && base_extra.count("accuracy")) {
        extra["accuracy_delta_pp"] =
            (extra["accuracy"] - base_extra.at("accuracy")) * 100.0;
      }
    }
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, result.tree_hash);
    std::printf("%-48s sim_s=%9.3f wall_s=%7.3f nodes=%5d tree=%s\n",
                label.c_str(), result.sim_seconds, result.wall_seconds,
                result.nodes, hash);

    // Every later cell under `key` must record the value its first did.
    const auto agrees = [&](FirstSeen* first, const std::string& key,
                            const std::string& value, const char* rule) {
      const auto [it, inserted] = first->try_emplace(key, value, label);
      if (inserted || it->second.first == value) return;
      std::fprintf(stderr, "%s violated on %s: %s recorded\n  %s\n%s "
                   "recorded\n  %s\n", rule, key.c_str(),
                   it->second.second.c_str(), it->second.first.c_str(),
                   label.c_str(), value.c_str());
      failed = true;
    };
    if (!SampleServed(cell)) {
      agrees(&first_tree,
             cell.table->name + " max_depth=" + std::to_string(cell.max_depth),
             hash, "model equivalence");
    }
    if (!cell.group.empty()) {
      JsonWriter outcome;
      WriteOutcome(result, hash, extra, /*invariants_only=*/true, &outcome);
      agrees(&first_outcome, cell.group, outcome.str(), "invariance group");
    }
    const ClassificationMiddleware::Stats& s = result.mw_stats;
    const uint64_t faults = s.bitmap_fallbacks.load() +
                            s.sample_fallbacks.load() +
                            s.shard_fallbacks.load() +
                            s.shard_rpc_timeouts.load() +
                            s.shard_worker_restarts.load();
    if (faults > 0) {
      std::fprintf(stderr,
                   "%s: %" PRIu64 " path fallbacks, RPC timeouts or worker "
                   "restarts\n",
                   label.c_str(), faults);
      failed = true;
    }
    WriteRecord(cell, result, hash, extra, &json);
    results.push_back(std::move(result));
    extras.push_back(std::move(extra));
  }
  json.EndArray();
  json.EndObject();

  // The extension paths' headline claims, at full scale: some cell of
  // `figure` is `min_speedup` times cheaper in simulated seconds than its
  // baseline, losing at most `max_loss_pp` points of accuracy where
  // accuracy is measured.
  const auto reaches = [&](const std::string& figure, double min_speedup,
                           double max_loss_pp) {
    for (size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].figure != figure || cells[i].baseline < 0) continue;
      const double speedup =
          results[cells[i].baseline].sim_seconds / results[i].sim_seconds;
      const auto delta = extras[i].find("accuracy_delta_pp");
      if (speedup >= min_speedup &&
          (delta == extras[i].end() || delta->second >= -max_loss_pp)) {
        return true;
      }
    }
    std::fprintf(stderr, "%s: no cell is %gx cheaper than its baseline "
                 "within %g pp\n", figure.c_str(), min_speedup, max_loss_pp);
    return false;
  };
  if (!smoke) {
    failed = !reaches("ext-bitmap", 10.0, 0.0) | failed;
    failed = !reaches("ext-approx", 2.0, 0.5) | failed;
  }

  if (!dump_path.empty()) {
    const Status dump_status = json.WriteToFile(dump_path);
    if (!dump_status.ok()) {
      std::fprintf(stderr, "failed to write %s: %s\n", dump_path.c_str(),
                   dump_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", dump_path.c_str());
  }
  return failed ? 1 : 0;
}
