// Microbenchmarks (google-benchmark) for the hot paths: CC-table updates,
// batch predicate matching (trie vs naive), heap-file scans, predicate
// evaluation, and SQL parsing.

#include <benchmark/benchmark.h>

#include <deque>
#include <tuple>

#include "catalog/schema.h"
#include "common/random.h"
#include "middleware/batch_matcher.h"
#include "mining/cc_table.h"
#include "sql/parser.h"
#include "storage/heap_file.h"

#include "bench_util.h"

namespace sqlclass {
namespace {

Schema BenchSchema(int attrs, int cards, int classes) {
  std::vector<AttributeDef> defs;
  for (int i = 0; i < attrs; ++i) {
    AttributeDef attr;
    attr.name = "A" + std::to_string(i + 1);
    attr.cardinality = cards;
    defs.push_back(std::move(attr));
  }
  AttributeDef cls;
  cls.name = "class";
  cls.cardinality = classes;
  defs.push_back(std::move(cls));
  return Schema(std::move(defs), attrs);
}

std::vector<Row> BenchRows(const Schema& schema, size_t n, uint64_t seed) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row(schema.num_columns());
    for (int c = 0; c < schema.num_columns(); ++c) {
      row[c] = static_cast<Value>(rng.Uniform(schema.attribute(c).cardinality));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

void BM_CcTableAddRow(benchmark::State& state) {
  const int attrs = static_cast<int>(state.range(0));
  Schema schema = BenchSchema(attrs, 8, 4);
  std::vector<Row> rows = BenchRows(schema, 1024, 1);
  std::vector<int> attr_cols = schema.PredictorColumns();
  CcTable cc(4);
  size_t i = 0;
  for (auto _ : state) {
    cc.AddRow(rows[i & 1023], attr_cols, attrs);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * attrs);
}
BENCHMARK(BM_CcTableAddRow)->Arg(5)->Arg(25)->Arg(100);

/// Builds `n` leaf-path predicates of a random binary tree — a realistic
/// frontier: siblings share prefixes, exactly the structure BatchMatcher's
/// trie exploits. (A batch of *unrelated* random conjunctions would make
/// the trie look no better than naive short-circuit evaluation; frontiers
/// are never unrelated.)
std::vector<std::unique_ptr<Expr>> FrontierPredicates(const Schema& schema,
                                                      int n, uint64_t seed) {
  Random rng(seed);
  using Literal = std::tuple<int, bool, Value>;  // (column, equals, value)
  std::deque<std::vector<Literal>> frontier;
  frontier.push_back({});
  while (static_cast<int>(frontier.size()) < n) {
    std::vector<Literal> path = std::move(frontier.front());
    frontier.pop_front();  // FIFO => balanced growth
    const int col = static_cast<int>(rng.Uniform(schema.num_columns() - 1));
    const Value v =
        static_cast<Value>(rng.Uniform(schema.attribute(col).cardinality));
    std::vector<Literal> left = path;
    left.emplace_back(col, true, v);
    path.emplace_back(col, false, v);
    frontier.push_back(std::move(left));
    frontier.push_back(std::move(path));
  }
  std::vector<std::unique_ptr<Expr>> preds;
  preds.reserve(frontier.size());
  for (const auto& path : frontier) {
    std::vector<std::unique_ptr<Expr>> conj;
    if (path.empty()) {
      conj.push_back(Expr::True());
    }
    for (const auto& [col, equals, v] : path) {
      const std::string& name = schema.attribute(col).name;
      conj.push_back(equals ? Expr::ColEq(name, v) : Expr::ColNe(name, v));
    }
    auto pred = Expr::And(std::move(conj));
    bench::CheckOk(pred->Bind(schema));
    preds.push_back(std::move(pred));
  }
  return preds;
}

void BM_BatchMatcherTrie(benchmark::State& state) {
  Schema schema = BenchSchema(25, 8, 4);
  auto preds = FrontierPredicates(schema, static_cast<int>(state.range(0)), 2);
  std::vector<const Expr*> raw;
  for (const auto& pred : preds) raw.push_back(pred.get());
  BatchMatcher matcher(raw);
  std::vector<Row> rows = BenchRows(schema, 1024, 3);
  std::vector<int> out;
  size_t i = 0;
  for (auto _ : state) {
    matcher.Match(rows[i & 1023], &out);
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchMatcherTrie)->Arg(16)->Arg(128)->Arg(1024);

void BM_BatchMatchNaive(benchmark::State& state) {
  Schema schema = BenchSchema(25, 8, 4);
  auto preds = FrontierPredicates(schema, static_cast<int>(state.range(0)), 2);
  std::vector<Row> rows = BenchRows(schema, 1024, 3);
  std::vector<int> out;
  size_t i = 0;
  for (auto _ : state) {
    out.clear();
    const Row& row = rows[i & 1023];
    for (size_t p = 0; p < preds.size(); ++p) {
      if (preds[p]->Eval(row)) out.push_back(static_cast<int>(p));
    }
    benchmark::DoNotOptimize(out);
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BatchMatchNaive)->Arg(16)->Arg(128)->Arg(1024);

void BM_ExprEval(benchmark::State& state) {
  Schema schema = BenchSchema(25, 8, 4);
  auto pred = ParsePredicate(
      "(A1 = 1 AND A2 <> 3 AND A5 = 2) OR (A7 <> 0 AND A9 = 4)");
  bench::CheckOk(pred.value()->Bind(schema));
  std::vector<Row> rows = BenchRows(schema, 1024, 4);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.value()->Eval(rows[i & 1023]));
    ++i;
  }
}
BENCHMARK(BM_ExprEval);

void BM_ParseCcQuery(benchmark::State& state) {
  const std::string sql =
      "SELECT 'A1' AS attr_name, A1 AS value, class, COUNT(*) FROM data "
      "WHERE (A2 = 1 AND A3 <> 0) GROUP BY class, A1 UNION ALL "
      "SELECT 'A2' AS attr_name, A2 AS value, class, COUNT(*) FROM data "
      "WHERE (A2 = 1 AND A3 <> 0) GROUP BY class, A2";
  for (auto _ : state) {
    auto query = ParseQuery(sql);
    benchmark::DoNotOptimize(query);
  }
}
BENCHMARK(BM_ParseCcQuery);

void BM_HeapFileScan(benchmark::State& state) {
  static bench::ScopedDir* dir = new bench::ScopedDir("micro");
  Schema schema = BenchSchema(25, 8, 4);
  const std::string path =
      dir->path() + "/scan_" + std::to_string(state.range(0)) + ".tbl";
  {
    auto writer = HeapFileWriter::Create(path, schema.num_columns(), nullptr);
    std::vector<Row> rows = BenchRows(schema, state.range(0), 5);
    for (const Row& row : rows) bench::CheckOk(writer.value()->Append(row));
    bench::CheckOk(writer.value()->Finish());
  }
  for (auto _ : state) {
    auto reader = HeapFileReader::Open(path, schema.num_columns(), nullptr);
    Row row;
    uint64_t n = 0;
    while (*reader.value()->Next(&row)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapFileScan)->Arg(10000)->Arg(100000);

}  // namespace
}  // namespace sqlclass

BENCHMARK_MAIN();
