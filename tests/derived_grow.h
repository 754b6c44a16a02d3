#ifndef SQLCLASS_TESTS_DERIVED_GROW_H_
#define SQLCLASS_TESTS_DERIVED_GROW_H_

// Grow-level checks of derived sibling tables (DESIGN.md "Derived
// children"): one tree grown through the middleware with and without the
// parent tables its requests carry must be identical in everything but the
// derived-node counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "datagen/census.h"
#include "datagen/load.h"
#include "middleware/batch_executor.h"
#include "middleware/middleware.h"
#include "mining/tree_client.h"
#include "server/server.h"

namespace sqlclass {
namespace testing_util {

/// Forwards to a middleware and records each delivered table; with
/// `drop_parent_cc` it strips every request's parent table, so the
/// middleware counts every node.
class ParentStrippingProvider : public CcProvider {
 public:
  ParentStrippingProvider(CcProvider* inner, bool drop_parent_cc)
      : inner_(inner), drop_parent_cc_(drop_parent_cc) {}

  Status QueueRequest(CcRequest request) override {
    if (drop_parent_cc_) request.parent_cc = nullptr;
    return inner_->QueueRequest(std::move(request));
  }
  StatusOr<std::vector<CcResult>> FulfillSome() override {
    SQLCLASS_ASSIGN_OR_RETURN(std::vector<CcResult> results,
                              inner_->FulfillSome());
    for (const CcResult& result : results) {
      delivered_.emplace_back(result.node_id, result.cc);
    }
    return results;
  }
  void ReleaseNode(int node_id) override { inner_->ReleaseNode(node_id); }
  size_t PendingRequests() const override { return inner_->PendingRequests(); }

  std::vector<std::pair<int, CcTable>>& delivered() { return delivered_; }

 private:
  CcProvider* inner_;
  bool drop_parent_cc_;
  std::vector<std::pair<int, CcTable>> delivered_;
};

/// Every BatchTrace field but derived_nodes.
inline std::string TraceFields(const ClassificationMiddleware::BatchTrace& t) {
  std::ostringstream out;
  out << t.batch << ' ' << static_cast<int>(t.source.kind) << ' '
      << t.source.store_id << ' ' << t.nodes << ' ' << t.staged_to_file << ' '
      << t.staged_to_memory << ' ' << t.requeued << ' ' << t.sql_fallbacks
      << ' ' << t.file_split << ' ' << t.rows_scanned << ' '
      << t.degraded_to_server << ' ' << t.served_from_bitmap << ' '
      << t.served_from_sample << ' ' << t.escalated << ' '
      << t.served_from_shards;
#define SQLCLASS_TRACE_COUNT(name) \
  if (std::string(#name) != "derived_nodes") out << ' ' << t.counts.name;
  SQLCLASS_SCAN_COUNTS(SQLCLASS_TRACE_COUNT)
#undef SQLCLASS_TRACE_COUNT
  return out.str();
}

struct GrowRecord {
  std::string signature;
  std::vector<std::pair<int, CcTable>> delivered;
  std::vector<ClassificationMiddleware::BatchTrace> trace;
  ClassificationMiddleware::Stats stats;
  CostCounters cost;
};

inline GrowRecord GrowThroughMiddleware(SqlServer* server,
                                        const Schema& schema, uint64_t rows,
                                        MiddlewareConfig config,
                                        const TreeClientConfig& client_config,
                                        bool drop_parent_cc) {
  GrowRecord record;
  auto middleware =
      ClassificationMiddleware::Create(server, "data", std::move(config));
  EXPECT_TRUE(middleware.ok()) << middleware.status().ToString();
  if (!middleware.ok()) return record;
  ParentStrippingProvider provider(middleware->get(), drop_parent_cc);
  DecisionTreeClient client(schema, client_config);
  const CostCounters before = server->cost_counters();
  auto tree = client.Grow(&provider, rows);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  if (!tree.ok()) return record;
  record.cost = CostCounters::Delta(server->cost_counters(), before);
  record.signature = tree->Signature();
  record.delivered = std::move(provider.delivered());
  record.trace = (*middleware)->trace();
  record.stats = (*middleware)->stats();
  return record;
}

/// Derived nodes per source kind (server, file, memory) in a grow.
inline std::vector<uint64_t> DerivedBySource(const GrowRecord& record) {
  std::vector<uint64_t> by_source(3, 0);
  for (const ClassificationMiddleware::BatchTrace& t : record.trace) {
    by_source[static_cast<int>(t.source.kind)] += t.counts.derived_nodes;
  }
  return by_source;
}

/// Derived nodes in the batches whose `path` count (bitmap_scans,
/// shard_scans) is set.
inline uint64_t DerivedOnPath(const GrowRecord& record,
                              uint64_t ScanCounts::*path) {
  uint64_t derived = 0;
  for (const ClassificationMiddleware::BatchTrace& t : record.trace) {
    if (t.counts.*path != 0) derived += t.counts.derived_nodes;
  }
  return derived;
}

/// Grows one tree with and without parent tables and checks that the two
/// grows are identical in every delivered table, every BatchTrace field
/// but derived_nodes, every Stats counter but derived_nodes and every
/// CostCounters field. `before_each`, if set, runs before each grow (to
/// re-arm a fault schedule). Returns the grow that derived.
inline GrowRecord ExpectGrowsAlike(
    SqlServer* server, const Schema& schema, uint64_t rows,
    const MiddlewareConfig& config, const TreeClientConfig& client_config,
    const std::function<void()>& before_each = {}) {
  if (before_each) before_each();
  GrowRecord derived = GrowThroughMiddleware(server, schema, rows, config,
                                             client_config, false);
  if (before_each) before_each();
  GrowRecord counted = GrowThroughMiddleware(server, schema, rows, config,
                                             client_config, true);
  EXPECT_FALSE(derived.signature.empty());
  EXPECT_EQ(derived.signature, counted.signature);
  EXPECT_EQ(derived.cost.ToString(), counted.cost.ToString());
  EXPECT_EQ(derived.delivered.size(), counted.delivered.size());
  for (size_t i = 0;
       i < std::min(derived.delivered.size(), counted.delivered.size());
       ++i) {
    EXPECT_EQ(derived.delivered[i].first, counted.delivered[i].first);
    EXPECT_TRUE(derived.delivered[i].second == counted.delivered[i].second)
        << "delivery " << i << ", node " << derived.delivered[i].first;
  }
  EXPECT_EQ(derived.trace.size(), counted.trace.size());
  for (size_t i = 0; i < std::min(derived.trace.size(), counted.trace.size());
       ++i) {
    EXPECT_EQ(TraceFields(derived.trace[i]), TraceFields(counted.trace[i]))
        << "batch " << i;
  }
#define SQLCLASS_EXPECT_STAT_EQ(name)                  \
  if (std::string(#name) != "derived_nodes") {         \
    EXPECT_EQ(derived.stats.name.load(), counted.stats.name.load()) \
        << #name;                                      \
  }
  SQLCLASS_MIDDLEWARE_STATS(SQLCLASS_EXPECT_STAT_EQ)
#undef SQLCLASS_EXPECT_STAT_EQ
  EXPECT_EQ(counted.stats.derived_nodes.load(), 0u);
  uint64_t traced = 0;
  for (uint64_t n : DerivedBySource(derived)) traced += n;
  EXPECT_EQ(derived.stats.derived_nodes.load(), traced);
  return derived;
}

/// Loads `rows` census rows into `server` as table "data".
inline void LoadCensus(SqlServer* server, uint64_t rows,
                       std::unique_ptr<CensusDataset>* census) {
  CensusParams params;
  params.rows = rows;
  auto created = CensusDataset::Create(params);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  *census = std::move(created).value();
  const CensusDataset& dataset = **census;
  ASSERT_TRUE(LoadIntoServer(server, "data", dataset.schema(),
                             [&](const RowSink& sink) {
                               return dataset.Generate(sink);
                             })
                  .ok());
}

}  // namespace testing_util
}  // namespace sqlclass

#endif  // SQLCLASS_TESTS_DERIVED_GROW_H_
