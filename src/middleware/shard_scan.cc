#include "middleware/shard_scan.h"

#include <utility>

#include "common/fault_injector.h"

namespace sqlclass {

namespace {

/// Kernel options that count the task's nodes, with no charges.
ParallelScanOptions TaskOptions(const ShardTask& task) {
  ParallelScanOptions options;
  options.class_column = task.class_column;
  options.num_classes = task.num_classes;
  options.matcher = task.matcher;
  options.node_attrs = *task.node_attrs;
  return options;
}

/// Counts the heap file at `path` into the task's out-fields.
Status CountIntoTask(const ShardTask& task, const std::string& path,
                     const ParallelScanOptions& options) {
  SQLCLASS_ASSIGN_OR_RETURN(
      ParallelScanResult scan,
      CountShardHeap(path, task.num_columns, task.expected_rows, options,
                     task.io));
  *task.partials = std::move(scan.ccs);
  *task.rows_scanned = scan.rows_scanned;
  return Status::OK();
}

/// Scans the task's shard heap, or its byte-identical replica during
/// recovery. Runs on a pool thread: everything it touches is task-private
/// or read-only shared. The `shard/read` fault point guards the scan; any
/// failure marks the source dead and the coordinator climbs its recovery
/// ladder (replica, then primary re-scan).
Status ScanShardHeapFile(const ShardTask& task, const std::string& path) {
  SQLCLASS_FAULT_POINT(faults::kShardRead);
  return CountIntoTask(task, path, TaskOptions(task));
}

}  // namespace

StatusOr<ParallelScanResult> CountShardHeap(const std::string& path,
                                            int num_columns,
                                            uint64_t expected_rows,
                                            const ParallelScanOptions& options,
                                            IoCounters* io) {
  // cost: charged-by-caller(ShardCoordinator::Run) — logical mw_shard_*
  // charges are applied once post-merge so simulated cost is shard- and
  // worker-count-invariant; physical pages land on `io`.
  SQLCLASS_ASSIGN_OR_RETURN(
      ParallelScanResult scan,
      ParallelCountScan::OverHeapFile(nullptr, path, num_columns, options,
                                      /*cost=*/nullptr, io));
  if (scan.rows_scanned != expected_rows) {
    return Status::DataLoss("shard row count disagrees with map for " + path);
  }
  return scan;
}

Status InProcessShardTransport::RunShard(const ShardTask& task) {
  SQLCLASS_FAULT_POINT(faults::kShardWorker);
  return ScanShardHeapFile(task, task.shard_heap_path);
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

  std::vector<const Expr*> predicates;
  std::vector<const std::vector<int>*> node_attrs;
  predicates.reserve(nodes->size());
  node_attrs.reserve(nodes->size());
  for (Node& node : *nodes) {
    if (node.cc == nullptr || node.active_attrs == nullptr) {
      return Status::InvalidArgument("shard scan node missing cc/attrs");
    }
    predicates.push_back(node.predicate);
    node_attrs.push_back(node.active_attrs);
  }
  BatchMatcher matcher(predicates);
  std::vector<int> cardinalities;
  for (const AttributeDef& column : schema_->attributes()) {
    cardinalities.push_back(column.cardinality);
  }

  SQLCLASS_ASSIGN_OR_RETURN(const ShardInfo* entries, map_->ShardRows());
  const uint32_t shards = map_->num_shards();
  const size_t n = nodes->size();

  // Per-shard private state: partial CC tables (each scan fills them
  // afresh), row tallies, physical IO, and the outcome status. Workers
  // write only their own shard's slots.
  std::vector<std::vector<CcTable>> partials(shards);
  std::vector<uint64_t> shard_rows(shards, 0);
  std::vector<IoCounters> shard_io(shards);
  std::vector<Status> shard_status(shards);
  std::vector<ShardTask> tasks(shards);
  for (uint32_t s = 0; s < shards; ++s) {
    ShardTask& task = tasks[s];
    task.shard = s;
    task.shard_heap_path = ShardHeapPathFor(heap_path_, s);
    task.expected_rows = entries[s].rows;
    task.num_columns = schema_->num_columns();
    task.class_column = class_column;
    task.num_classes = num_classes;
    task.matcher = &matcher;
    task.node_attrs = &node_attrs;
    task.predicates = &predicates;
    task.cardinalities = &cardinalities;
    task.partials = &partials[s];
    task.rows_scanned = &shard_rows[s];
    task.io = &shard_io[s];
  }

  auto run_shard = [&](int s) {
    shard_status[s] = transport->RunShard(tasks[s]);
  };
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
  int rescans = 0;
  int replica_rescans = 0;
  for (uint32_t s = 0; s < shards; ++s) {
    if (shard_status[s].ok()) continue;
    if (ScanShardHeapFile(tasks[s], ShardReplicaPathFor(heap_path_, s))
            .ok()) {
      ++replica_rescans;
      continue;
    }
    SQLCLASS_RETURN_IF_ERROR(RescanFromPrimary(s, tasks[s]));
    ++rescans;
  }

  // Cell counts are int64 sums over disjoint row partitions, and the fixed
  // shard order makes the merge independent of worker scheduling: the
  // merged tables are byte-identical to an unsharded scan's at every shard
  // and thread count.
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t s = 0; s < shards; ++s) {
      (*nodes)[i].cc->Merge(partials[s][i]);
    }
  }

  uint64_t total_rows_scanned = 0;
  for (uint32_t s = 0; s < shards; ++s) total_rows_scanned += shard_rows[s];
  uint64_t merged_cells = 0;
  for (size_t i = 0; i < n; ++i) merged_cells += (*nodes)[i].cc->NumEntries();

  // Logical charges, once post-merge: every base row is counted against
  // every node exactly once across all shards, and merge cells meter the
  // *final* merged tables — both totals are the same at every shard count
  // (the Rule 8 invariance contract; recovery re-reads show up only in
  // the physical IoCounters).
  charges.mw_shard_rows_read += total_rows_scanned * static_cast<uint64_t>(n);
  charges.mw_shard_merge_cells += merged_cells;

  if (io_ != nullptr) {
    for (uint32_t s = 0; s < shards; ++s) io_->Add(shard_io[s]);
  }
  if (result != nullptr) {
    result->rows_scanned = total_rows_scanned;
    result->rescans = rescans;
    result->replica_rescans = replica_rescans;
  }
  return Status::OK();
}

Status ShardCoordinator::RescanFromPrimary(uint32_t shard,
                                           const ShardTask& task) {
  const ShardScheme scheme = map_->scheme();
  const uint32_t shards = map_->num_shards();
  ParallelScanOptions options = TaskOptions(task);
  options.row_filter = [scheme, shard, shards](uint64_t ordinal) {
    return ShardForRow(scheme, ordinal, shards) == shard;
  };
  return CountIntoTask(task, heap_path_, options);
}

}  // namespace sqlclass
