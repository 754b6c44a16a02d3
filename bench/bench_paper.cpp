// The paper's evaluation as one table of cells: Fig 4 (memory and database
// size), Fig 5 (CC memory, row scale-up), Fig 6 (file staging), Fig 7
// (attributes, SQL counting), Fig 8 (tree shape), the §5.2.5 index-scan
// study, the DESIGN.md ablations A1-A3 and the §5.1.2 Gaussian variation
// study. A cell is one grow over a generated table through one provider —
// a middleware config, straightforward SQL counting, the extract-all file
// store, or a server-side auxiliary structure — at one x-value. One loop
// grows every cell, prints one line per cell and records one JSON object
// per cell: simulated and wall seconds, tree hash and shape, every cost
// counter and the middleware's scan counts.
//
// The smoke-scale dump is committed as bench/paper_smoke_golden.json;
// tools/check_paper_golden.py (ctest bench_paper_golden) requires a fresh
// run to equal it in every field but wall_s. A change to the cost model on
// purpose regenerates it:
//   build/bench/bench_paper --smoke --dump=bench/paper_smoke_golden.json
//
// The driver also checks model equivalence (§3.1): cells over the same
// table and client config must grow the same tree, whatever their provider,
// budget or staging; it exits 1 otherwise.
//
// Sizes scale the paper's by its memory:data ratios; SQLCLASS_BENCH_SCALE
// enlarges them.
//
// Flags:
//   --smoke        the same grid at 1/4 of the scale
//   --dump=FILE    also write the records as JSON (BENCH_paper.json)

#include <algorithm>
#include <cinttypes>
#include <map>
#include <sstream>
#include <tuple>
#include <variant>
#include <vector>

#include "baseline/aux_structures.h"
#include "baseline/extract_all.h"
#include "baseline/sql_counting.h"
#include "bench_util.h"
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

// A generated table, loaded once and shared by every cell that names it.
struct Table {
  std::string name;
  Schema schema;
  uint64_t rows = 0;
  uint64_t bytes = 0;
  std::vector<Row> eval_rows;  // Gaussian tables: accuracy is measured here
};

struct GridCell {
  std::string figure;
  std::string series;
  std::string x_name;
  double x = 0;
  const Table* table = nullptr;
  Provider provider;
  int max_depth = 0;  // the client config: TreeClientConfig::max_depth
};

class Grid {
 public:
  explicit Grid(SqlServer* server) : server_(server) {}

  // Generates `params` into table `name` unless that table is loaded.
  template <typename Dataset, typename Params>
  const Table& Load(const std::string& name, const Params& params,
                    bool keep_rows = false) {
    auto it = tables_.find(name);
    if (it != tables_.end()) return it->second;
    auto dataset = Dataset::Create(params);
    CheckOk(dataset.status());
    const Dataset& ds = **dataset;
    CheckOk(LoadIntoServer(server_, name, ds.schema(),
                           [&](const RowSink& sink) {
                             return ds.Generate(sink);
                           }));
    Table table{name, ds.schema(), ds.TotalRows(),
                ds.TotalRows() * ds.schema().RowBytes(), {}};
    if (keep_rows) CheckOk(ds.Generate(CollectInto(&table.eval_rows)));
    return tables_.emplace(name, std::move(table)).first->second;
  }

  void Add(std::string figure, std::string series, std::string x_name,
           double x, const Table& table, Provider provider,
           int max_depth = 0) {
    cells_.push_back({std::move(figure), std::move(series), std::move(x_name),
                      x, &table, std::move(provider), max_depth});
  }

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

void WriteRecord(const GridCell& cell, const TreeRunResult& r,
                 const std::string& hash,
                 const std::map<std::string, double>& extra,
                 JsonWriter* json) {
  const auto text = [&](const char* key, const std::string& value) {
    json->Key(key);
    json->String(value);
  };
  const auto real = [&](const std::string& key, double value) {
    json->Key(key);
    json->Double(value);
  };
  const auto count = [&](const std::string& key, uint64_t value) {
    json->Key(key);
    json->Int(value);
  };
  json->BeginObject();
  text("figure", cell.figure);
  text("series", cell.series);
  text("x_name", cell.x_name);
  real("x", cell.x);
  text("table", cell.table->name);
  count("rows", cell.table->rows);
  real("data_mb", Mb(cell.table->bytes));
  real("sim_s", r.sim_seconds);
  real("wall_s", r.wall_seconds);
  text("tree_hash", hash);
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
  for (const auto& [key, value] : extra) real(key, value);
  json->EndObject();
  json->EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, dump_path] = ParseBenchArgs(argc, argv);
  const double scale = BenchScale() * (smoke ? 0.25 : 1.0);
  ScopedDir dir("paper");
  SqlServer server(dir.path());
  Grid grid(&server);
  BuildGrid(scale, &grid);
  std::printf("# paper grid: %zu cells at scale %g\n", grid.cells().size(),
              scale);

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("paper");
  json.Key("scale");
  json.Double(scale);
  json.Key("cells");
  json.BeginArray();
  // The first tree grown per (table, client config), and by which cell.
  std::map<std::string, std::pair<std::string, std::string>> first_tree;
  bool diverged = false;
  for (const GridCell& cell : grid.cells()) {
    std::map<std::string, double> extra;
    const TreeRunResult result = Grow(&server, dir.path(), cell, &extra);
    if (!result.ok) return 1;
    char x[32];
    std::snprintf(x, sizeof(x), "%g", cell.x);
    const std::string label =
        cell.figure + "/" + cell.series + "/" + cell.x_name + "=" + x;
    char hash[17];
    std::snprintf(hash, sizeof(hash), "%016" PRIx64, result.tree_hash);
    std::printf("%-48s sim_s=%9.3f wall_s=%7.3f nodes=%5d tree=%s\n",
                label.c_str(), result.sim_seconds, result.wall_seconds,
                result.nodes, hash);
    const std::string key =
        cell.table->name + " max_depth=" + std::to_string(cell.max_depth);
    const auto [first, inserted] = first_tree.try_emplace(key, hash, label);
    if (!inserted && first->second.first != hash) {
      std::fprintf(stderr,
                   "model equivalence violated on %s: %s grew %s, %s grew "
                   "%s\n",
                   key.c_str(), first->second.second.c_str(),
                   first->second.first.c_str(), label.c_str(), hash);
      diverged = true;
    }
    WriteRecord(cell, result, hash, extra, &json);
  }
  json.EndArray();
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
  return diverged ? 1 : 0;
}
