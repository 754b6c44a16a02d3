#include "middleware/shard_scan.h"

#include <utility>

#include "common/fault_injector.h"
#include "middleware/batch_matcher.h"
#include "middleware/parallel_scan.h"

namespace sqlclass {

StatusOr<WireShardResult> CountShardTask(
    const WireShardTask& task, const std::string& path,
    const std::function<bool(uint64_t row_ordinal)>& row_filter) {
  // cost: charged-by-caller(ShardCoordinator::Run) — logical mw_shard_*
  // charges are applied once post-merge so simulated cost is shard- and
  // worker-count-invariant; physical pages land on the result's io.
  if (!row_filter) SQLCLASS_FAULT_POINT(faults::kShardRead);
  // Each node's predicate is raised back to an Expr over an index-named
  // schema and routed through one BatchMatcher, so a worker process and
  // the coordinator make the same per-node match decisions.
  const Schema schema = WireSchema(task.num_columns);
  std::vector<std::unique_ptr<Expr>> exprs;
  std::vector<const Expr*> predicates;
  ParallelScanOptions options;
  for (const WireTaskNode& node : task.nodes) {
    exprs.push_back(ExprFromWirePredicate(node.predicate));
    SQLCLASS_RETURN_IF_ERROR(exprs.back()->Bind(schema));
    predicates.push_back(exprs.back().get());
    options.node_attrs.push_back(&node.attrs);
  }
  const BatchMatcher matcher(predicates);
  options.class_column = task.class_column;
  options.num_classes = task.num_classes;
  options.matcher = &matcher;
  options.row_filter = row_filter;
  WireShardResult result;
  SQLCLASS_ASSIGN_OR_RETURN(
      ParallelScanResult scan,
      ParallelCountScan::OverHeapFile(nullptr, path, task.num_columns,
                                      options, /*cost=*/nullptr, &result.io));
  if (scan.rows_scanned != task.expected_rows) {
    return Status::DataLoss("shard row count disagrees with map for " + path);
  }
  result.partials = std::move(scan.ccs);
  result.rows_scanned = scan.rows_scanned;
  return result;
}

StatusOr<WireShardResult> InProcessShardTransport::RunShard(
    const WireShardTask& task) {
  SQLCLASS_FAULT_POINT(faults::kShardWorker);
  return CountShardTask(task, task.shard_heap_path);
}

ShardCoordinator::ShardCoordinator(std::string heap_path, const Schema* schema,
                                   std::unique_ptr<ShardMapReader> map,
                                   IoCounters* io)
    : heap_path_(std::move(heap_path)),
      schema_(schema),
      map_(std::move(map)),
      io_(io) {}

StatusOr<std::unique_ptr<ShardCoordinator>> ShardCoordinator::Open(
    const std::string& heap_path, const Schema& schema, IoCounters* io) {
  if (schema.class_column() < 0) {
    return Status::InvalidArgument("sharded scan needs a class column");
  }
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<ShardMapReader> map,
      ShardMapReader::Open(ShardMapPathFor(heap_path), io));
  if (map->num_columns() != static_cast<uint32_t>(schema.num_columns())) {
    return Status::InvalidArgument("shard map column count mismatch for " +
                                   heap_path);
  }
  return std::unique_ptr<ShardCoordinator>(
      new ShardCoordinator(heap_path, &schema, std::move(map), io));
}

Status ShardCoordinator::Run(ThreadPool* pool, ShardTransport* transport,
                             std::vector<Node>* nodes, CostCounters* cost,
                             Result* result) {
  const int class_column = schema_->class_column();
  const int num_classes = schema_->attribute(class_column).cardinality;
  CostCounters scratch;  // charge sink when the caller passes none
  CostCounters& charges = cost != nullptr ? *cost : scratch;

  // The batch, lowered once: every shard's task differs only in its shard,
  // heap file and expected row count.
  WireShardTask batch_task;
  batch_task.num_columns = schema_->num_columns();
  batch_task.class_column = class_column;
  batch_task.num_classes = num_classes;
  for (const AttributeDef& column : schema_->attributes()) {
    batch_task.cardinalities.push_back(column.cardinality);
  }
  for (const Node& node : *nodes) {
    if (node.cc == nullptr || node.active_attrs == nullptr) {
      return Status::InvalidArgument("shard scan node missing cc/attrs");
    }
    WireTaskNode& wire = batch_task.nodes.emplace_back();
    wire.predicate = WirePredicateFromExpr(node.predicate);
    wire.attrs.assign(node.active_attrs->begin(), node.active_attrs->end());
  }

  SQLCLASS_ASSIGN_OR_RETURN(const ShardInfo* entries, map_->ShardRows());
  const uint32_t shards = map_->num_shards();
  const size_t n = nodes->size();
  std::vector<WireShardTask> tasks(shards, batch_task);
  for (uint32_t s = 0; s < shards; ++s) {
    tasks[s].shard = s;
    tasks[s].shard_heap_path = ShardHeapPathFor(heap_path_, s);
    tasks[s].expected_rows = entries[s].rows;
  }

  // Workers write only their own shard's slot.
  std::vector<StatusOr<WireShardResult>> results(
      shards, Status::Internal("shard task not run"));
  auto run_shard = [&](int s) { results[s] = transport->RunShard(tasks[s]); };
  if (pool != nullptr && pool->size() > 1 && shards > 1) {
    pool->RunTasks(static_cast<int>(shards), run_shard);
  } else {
    for (uint32_t s = 0; s < shards; ++s) run_shard(static_cast<int>(s));
  }

  // Recovery ladder for a dead shard (worker fault, RPC failure,
  // shard-file fault, stale row count): first its replica file — a
  // byte-identical copy written at shard-set build time, scanned exactly
  // like the shard heap — then a re-scan of the primary heap file
  // restricted to the rows the scheme routed to it. Only a failed
  // *primary* re-scan fails the pass — that is the middleware's
  // shard-fallback rung.
  const ShardScheme scheme = map_->scheme();
  int rescans = 0;
  int replica_rescans = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    if (results[s].ok()) continue;
    results[s] = CountShardTask(tasks[s], ShardReplicaPathFor(heap_path_, s));
    if (results[s].ok()) {
      ++replica_rescans;
      continue;
    }
    results[s] = CountShardTask(
        tasks[s], heap_path_, [scheme, s, shards](uint64_t ordinal) {
          return ShardForRow(scheme, ordinal, shards) == s;
        });
    SQLCLASS_RETURN_IF_ERROR(results[s].status());
    ++rescans;
  }

  // Cell counts are int64 sums over disjoint row partitions, and the fixed
  // shard order makes the merge independent of worker scheduling: the
  // merged tables are byte-identical to an unsharded scan's at every shard
  // and thread count.
  uint64_t total_rows_scanned = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    for (size_t i = 0; i < n; ++i) {
      (*nodes)[i].cc->Merge(results[s]->partials[i]);
    }
    total_rows_scanned += results[s]->rows_scanned;
    if (io_ != nullptr) io_->Add(results[s]->io);
  }
  uint64_t merged_cells = 0;
  for (size_t i = 0; i < n; ++i) merged_cells += (*nodes)[i].cc->NumEntries();

  // Logical charges, once post-merge: every base row is counted against
  // every node exactly once across all shards, and merge cells meter the
  // *final* merged tables — both totals are the same at every shard count
  // (the Rule 8 invariance contract; recovery re-reads show up only in
  // the physical IoCounters).
  charges.mw_shard_rows_read += total_rows_scanned * static_cast<uint64_t>(n);
  charges.mw_shard_merge_cells += merged_cells;

  if (result != nullptr) {
    result->rows_scanned = total_rows_scanned;
    result->rescans = rescans;
    result->replica_rescans = replica_rescans;
  }
  return Status::OK();
}

}  // namespace sqlclass
