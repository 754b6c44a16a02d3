#include "middleware/middleware.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "middleware/bitmap_scan.h"
#include "middleware/sample_scan.h"
#include "mining/cc_sql.h"

namespace sqlclass {

StatusOr<std::unique_ptr<ClassificationMiddleware>>
ClassificationMiddleware::Create(SqlServer* server, const std::string& table,
                                 MiddlewareConfig config) {
  SQLCLASS_ASSIGN_OR_RETURN(const Schema* schema, server->GetSchema(table));
  if (!schema->has_class_column()) {
    return Status::InvalidArgument("table has no class column: " + table);
  }
  SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, server->TableRowCount(table));
  if (config.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory budget must be positive");
  }
  if (config.file_split_threshold < 0 || config.file_split_threshold > 1) {
    return Status::InvalidArgument("file split threshold must be in [0, 1]");
  }
  if (config.cc_memory_reserve < 0 || config.cc_memory_reserve >= 1) {
    return Status::InvalidArgument("cc memory reserve must be in [0, 1)");
  }
  if (config.overflow_check_interval == 0) {
    return Status::InvalidArgument("overflow check interval must be >= 1");
  }
  ApplyEnvOverrides(&config);
  SQLCLASS_RETURN_IF_ERROR(Validate(config));
  return std::unique_ptr<ClassificationMiddleware>(
      new ClassificationMiddleware(server, table, *schema, rows,
                                   std::move(config)));
}

ClassificationMiddleware::ClassificationMiddleware(SqlServer* server,
                                                   std::string table,
                                                   Schema schema,
                                                   uint64_t table_rows,
                                                   MiddlewareConfig config)
    : server_(server),
      table_(std::move(table)),
      schema_(std::move(schema)),
      num_classes_(schema_.attribute(schema_.class_column()).cardinality),
      table_rows_(table_rows),
      config_(std::move(config)),
      scheduler_(config_),
      estimator_(schema_),
      staging_(std::make_unique<StagingManager>(
          config_.staging_dir, schema_, &server->cost_counters())),
      executor_(server, config_, staging_.get()) {}

Status ClassificationMiddleware::QueueRequest(CcRequest request) {
  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(schema_, table_rows_, &request));

  Pending pending;
  pending.seq = next_seq_++;
  const double est_entries = estimator_.EstimateEntries(
      request.parent_id, request.data_size, request.active_attrs);
  pending.est_cc_bytes = static_cast<size_t>(
      est_entries * static_cast<double>(CcTable::BytesPerEntry(num_classes_)));
  pending.location = estimator_.InheritedLocation(request.parent_id);
  pending.request = std::move(request);
  pending_.push_back(std::move(pending));
  return Status::OK();
}

Status ClassificationMiddleware::GarbageCollectStores() {
  std::set<DataLocation> referenced;
  for (const Pending& pending : pending_) {
    if (pending.location.kind != LocationKind::kServer) {
      referenced.insert(pending.location);
    }
  }
  // Stores holding the data of delivered-but-unreleased nodes stay pinned:
  // the client may still queue children that will inherit them.
  for (int node_id : unreleased_) {
    if (estimator_.HasMeta(node_id)) {
      const DataLocation& loc = estimator_.meta(node_id).location;
      if (loc.kind != LocationKind::kServer) referenced.insert(loc);
    }
  }
  for (const DataLocation& loc : staging_->LiveStores()) {
    if (referenced.count(loc) == 0) {
      SQLCLASS_RETURN_IF_ERROR(staging_->Free(loc));
      ++stats_.stores_freed;
    }
  }
  return Status::OK();
}

void ClassificationMiddleware::ReleaseNode(int node_id) {
  unreleased_.erase(node_id);
}

Status ClassificationMiddleware::EvictMemoryStoresUnderPressure() {
  size_t smallest_est = std::numeric_limits<size_t>::max();
  for (const Pending& pending : pending_) {
    smallest_est = std::min(smallest_est, pending.est_cc_bytes);
  }
  if (smallest_est == std::numeric_limits<size_t>::max()) return Status::OK();

  while (config_.memory_budget_bytes <
         staging_->memory_bytes_used() + smallest_est) {
    // Pick the largest live memory store.
    DataLocation victim;
    uint64_t victim_rows = 0;
    for (const DataLocation& loc : staging_->LiveStores()) {
      if (loc.kind != LocationKind::kMemory) continue;
      SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, staging_->StoreRows(loc));
      if (rows >= victim_rows) {
        victim_rows = rows;
        victim = loc;
      }
    }
    if (victim.kind != LocationKind::kMemory) break;  // nothing to evict
    SQLCLASS_RETURN_IF_ERROR(staging_->Free(victim));
    ++stats_.stores_evicted;
    RelocateToServer(victim);
  }
  return Status::OK();
}

StatusOr<std::vector<CcResult>> ClassificationMiddleware::FulfillSome() {
  std::vector<CcResult> results;
  if (pending_.empty()) return results;

  // The client has queued all follow-ups for previously delivered nodes by
  // now (CcProvider contract), so the pending set fully determines which
  // staged stores are still reachable.
  SQLCLASS_RETURN_IF_ERROR(GarbageCollectStores());
  SQLCLASS_RETURN_IF_ERROR(EvictMemoryStoresUnderPressure());

  // A sample batch in which the gate escalates every node delivers nothing;
  // the escalated requests are back in the queue with sample routing off,
  // so planning again in the same call is guaranteed to make progress —
  // FulfillSome never returns empty-handed while requests are pending.
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(results, PlanAndExecuteOne());
    ++stats_.batches;
    stats_.nodes_fulfilled += results.size();
    if (!results.empty() || pending_.empty()) return results;
  }
}

StatusOr<std::vector<CcResult>> ClassificationMiddleware::PlanAndExecuteOne() {
  std::vector<CcResult> results;
  const bool sample_routing = config_.approx.enable &&
                              config_.approx.exactness < 1.0 &&
                              server_->HasSampleTable(table_);
  const bool bitmap_routing =
      config_.use_bitmap_index && server_->HasBitmapIndex(table_);
  const bool shard_routing =
      config_.sharding.enable && server_->HasShardSet(table_);
  std::vector<SchedItem> items;
  items.reserve(pending_.size());
  std::map<DataLocation, uint64_t> store_rows;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const Pending& pending = pending_[i];
    SchedItem item;
    item.idx = static_cast<int>(i);
    item.seq = pending.seq;
    item.data_size = pending.request.data_size;
    item.est_cc_bytes = pending.est_cc_bytes;
    item.location = pending.location;
    item.bitmap_servable =
        bitmap_routing && pending.location.kind == LocationKind::kServer &&
        BitmapCountScan::Servable(pending.request.predicate.get());
    item.sample_servable =
        sample_routing && !pending.no_sample &&
        !pending.request.prefer_exact &&
        pending.location.kind == LocationKind::kServer &&
        pending.request.data_size >= config_.approx.min_node_rows;
    item.shard_servable =
        shard_routing && pending.location.kind == LocationKind::kServer &&
        pending.request.data_size >= config_.sharding.min_node_rows;
    items.push_back(item);
    if (pending.location.kind != LocationKind::kServer &&
        store_rows.count(pending.location) == 0) {
      SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows,
                                staging_->StoreRows(pending.location));
      store_rows[pending.location] = rows;
    }
  }

  SchedBudgets budgets;
  budgets.memory_budget = config_.memory_budget_bytes;
  budgets.file_budget =
      config_.enable_file_staging ? config_.file_budget_bytes : 0;
  budgets.staged_memory_used = staging_->memory_bytes_used();
  budgets.staged_file_used = staging_->file_bytes_used();
  budgets.row_bytes = staging_->RowBytes();

  BatchPlan plan = scheduler_.PlanBatch(items, store_rows, budgets);
  if (plan.admitted.empty()) {
    return Status::Internal("scheduler admitted no requests");
  }

  // Extract the admitted requests (in plan order) from the queue.
  std::vector<Pending> batch;
  batch.reserve(plan.admitted.size());
  std::vector<bool> taken(pending_.size(), false);
  std::map<int, int> idx_to_pos;
  for (int idx : plan.admitted) {
    idx_to_pos[idx] = static_cast<int>(batch.size());
    batch.push_back(std::move(pending_[idx]));
    taken[idx] = true;
  }
  std::vector<Pending> remaining;
  remaining.reserve(pending_.size() - batch.size());
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!taken[i]) remaining.push_back(std::move(pending_[i]));
  }
  pending_ = std::move(remaining);

  // Rewrite staging decisions to batch positions.
  BatchPlan local = std::move(plan);
  for (StageDecision& decision : local.staging) {
    decision.idx = idx_to_pos.at(decision.idx);
  }

  SQLCLASS_ASSIGN_OR_RETURN(results, ExecuteBatch(local, std::move(batch)));
  return results;
}

StatusOr<std::vector<CcResult>> ClassificationMiddleware::ExecuteBatch(
    const BatchPlan& plan, std::vector<Pending> batch) {
  const int n = static_cast<int>(batch.size());
  BatchTrace trace;
  trace.batch = stats_.batches + 1;
  trace.nodes = n;
  trace.file_split = plan.file_split;

  BatchExecutor::Batch request;
  request.table = table_;
  request.schema = &schema_;
  for (const Pending& pending : batch) {
    request.requests.push_back(&pending.request);
  }
  request.plan = plan;
  request.memory_budget = config_.memory_budget_bytes;
  request.overflow_check_interval = config_.overflow_check_interval;
  request.ordinal = trace.batch;

  BatchExecutor::Report report;
  const Status ran = executor_.Run(request, &report);
  // Recovery activity counts whether or not the batch survived it.
#define SQLCLASS_STATS_ADD(name) stats_.name += report.counts.name;
  SQLCLASS_SCAN_COUNTS(SQLCLASS_STATS_ADD)
#undef SQLCLASS_STATS_ADD
  if (report.invalidated.has_value()) {
    // The executor freed the failed store; its subtree (and any pending
    // request reading it) now reads the server — correct, since predicates
    // are absolute, but costlier: the honest price of losing the store.
    RelocateToServer(*report.invalidated);
    ++stats_.stores_invalidated;
    ++stats_.degraded_scans;
  }
  SQLCLASS_RETURN_IF_ERROR(ran);

  const DataLocation source = report.source;
  std::vector<CcTable>& ccs = report.ccs;
  trace.source = source;  // where the surviving pass actually read from
  trace.rows_scanned = report.rows_scanned;
  trace.degraded_to_server = report.invalidated.has_value();
  trace.counts = report.counts;
  trace.served_from_sample = report.path == BatchExecutor::Path::kSample;
  trace.served_from_bitmap = report.path == BatchExecutor::Path::kBitmap;
  trace.served_from_shards = report.path == BatchExecutor::Path::kShards;
  if (report.path == BatchExecutor::Path::kRowScan) {
    ++(source.kind == LocationKind::kServer ? stats_.server_scans
       : source.kind == LocationKind::kFile ? stats_.file_scans
                                            : stats_.memory_scans);
  }
  if (source.kind == LocationKind::kFile && plan.file_split) {
    ++stats_.file_splits;
  }
  for (const std::optional<DataLocation>& staged : report.staged) {
    if (!staged.has_value()) continue;
    ++(staged->kind == LocationKind::kFile ? trace.staged_to_file
                                           : trace.staged_to_memory);
  }

  // Rule 7 gate: decide per node whether the sampled CC identifies the
  // exact best split at the configured confidence. Accepted nodes are
  // scaled up to their (possibly estimated) data size and delivered as
  // approximate; rejected nodes re-enter the queue as exact requests and
  // never route back to the scramble.
  std::vector<bool> escalate(n, false);
  if (trace.served_from_sample) {
    for (int pos = 0; pos < n; ++pos) {
      const SampleGateResult gate = EvaluateSampleGate(
          ccs[pos], batch[pos].request.active_attrs,
          config_.approx.gate_criterion, report.sample_rows[pos],
          config_.approx.confidence, config_.approx.exactness);
      sample_decisions_.push_back({batch[pos].request.node_id, gate.accept,
                                   gate.gap, gate.threshold});
      if (gate.accept) {
        ccs[pos] = ScaleCcToTotal(ccs[pos], batch[pos].request.active_attrs,
                                  batch[pos].request.data_size);
        ++stats_.sample_served_nodes;
      } else {
        escalate[pos] = true;
        ++stats_.sample_escalations;
      }
    }
  }

  // Fallback nodes: count at the server via the UNION GROUP BY query.
  std::vector<CcResult> results;
  results.reserve(n);
  for (int pos = 0; pos < n; ++pos) {
    const std::optional<DataLocation>& staged = report.staged[pos];
    if (escalate[pos]) {
      Pending retry = std::move(batch[pos]);
      retry.no_sample = true;
      pending_.push_back(std::move(retry));
      ++trace.escalated;
      continue;
    }
    if (report.evicted[pos] == BatchExecutor::Report::Eviction::kRequeue) {
      // Evicted under memory pressure: return to the queue with a corrected
      // estimate (monotone growth guarantees termination — once alone in a
      // batch it either fits or takes the SQL path). If its data was staged
      // during this scan, the retry reads the (smaller) staged store.
      Pending retry = std::move(batch[pos]);
      retry.est_cc_bytes =
          std::max(retry.est_cc_bytes * 2, report.observed_bytes[pos] * 2);
      // Point the retry at this batch's actual source, not the planned one:
      // after a mid-batch degradation the planned store no longer exists.
      retry.location = staged.value_or(source);
      estimator_.SetLocation(retry.request.node_id, retry.location);
      pending_.push_back(std::move(retry));
      ++trace.requeued;
      continue;
    }
    if (report.evicted[pos] == BatchExecutor::Report::Eviction::kSqlFallback) {
      SQLCLASS_ASSIGN_OR_RETURN(ccs[pos], SqlFallback(batch[pos]));
      ++stats_.sql_fallbacks;
      ++trace.sql_fallbacks;
    }
    const Pending& pending = batch[pos];
    // An estimated data size (the node descends from a sample-served CC)
    // cannot be asserted against: the exact count delivered here *is* the
    // truth the client reconciles with. Exact-sized requests keep the
    // strict invariant.
    if (!pending.request.data_size_is_estimate &&
        static_cast<uint64_t>(ccs[pos].TotalRows()) !=
            pending.request.data_size) {
      return Status::Internal(
          "counted " + std::to_string(ccs[pos].TotalRows()) +
          " rows for node " + std::to_string(pending.request.node_id) +
          ", expected " + std::to_string(pending.request.data_size));
    }
    estimator_.RecordCounted(pending.request.node_id, ccs[pos],
                             static_cast<uint64_t>(ccs[pos].TotalRows()),
                             pending.request.active_attrs);
    estimator_.SetLocation(pending.request.node_id, staged.value_or(source));
    unreleased_.insert(pending.request.node_id);
    results.emplace_back(pending.request.node_id, std::move(ccs[pos]));
    results.back().approximate = trace.served_from_sample;
  }
  trace_.push_back(trace);
  return results;
}

void ClassificationMiddleware::RelocateToServer(const DataLocation& loc) {
  const DataLocation server_loc{LocationKind::kServer, 0};
  estimator_.RelocateStore(loc, server_loc);
  for (Pending& pending : pending_) {
    if (pending.location == loc) pending.location = server_loc;
  }
}

StatusOr<CcTable> ClassificationMiddleware::SqlFallback(
    const Pending& pending) {
  const Expr* predicate =
      pending.request.predicate->kind() == ExprKind::kTrue
          ? nullptr
          : pending.request.predicate.get();
  const std::string sql = BuildCcQuerySql(
      table_, schema_, pending.request.active_attrs, predicate);
  SQLCLASS_ASSIGN_OR_RETURN(ResultSet result, server_->Execute(sql));
  const std::string& totals_attr =
      schema_.attribute(pending.request.active_attrs[0]).name;
  return CcFromResultSet(result, schema_, num_classes_, totals_attr);
}

}  // namespace sqlclass
