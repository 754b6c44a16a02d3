#include "baseline/aux_structures.h"

#include <atomic>

#include "middleware/batch_executor.h"
#include "middleware/batch_matcher.h"

namespace sqlclass {

namespace {
/// Distinguishes temp tables / TID lists across provider instances sharing
/// one server.
std::atomic<int> g_aux_instance{0};
}  // namespace

AuxStructureProvider::AuxStructureProvider(SqlServer* server,
                                           std::string table, Schema schema,
                                           uint64_t table_rows,
                                           AuxConfig config)
    : server_(server),
      table_(std::move(table)),
      schema_(std::move(schema)),
      num_classes_(schema_.attribute(schema_.class_column()).cardinality),
      table_rows_(table_rows),
      config_(config),
      instance_(++g_aux_instance) {}

StatusOr<std::unique_ptr<AuxStructureProvider>> AuxStructureProvider::Create(
    SqlServer* server, const std::string& table, AuxConfig config) {
  SQLCLASS_ASSIGN_OR_RETURN(const Schema* schema, server->GetSchema(table));
  if (!schema->has_class_column()) {
    return Status::InvalidArgument("table has no class column: " + table);
  }
  SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, server->TableRowCount(table));
  return std::unique_ptr<AuxStructureProvider>(
      new AuxStructureProvider(server, table, *schema, rows, config));
}

Status AuxStructureProvider::QueueRequest(CcRequest request) {
  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(schema_, table_rows_, &request));
  queue_.push_back(std::move(request));
  return Status::OK();
}

std::unique_ptr<Expr> AuxStructureProvider::UnionPredicate(
    const std::vector<CcRequest>& batch) {
  std::vector<std::unique_ptr<Expr>> clauses;
  for (const CcRequest& request : batch) {
    if (request.predicate->kind() == ExprKind::kTrue) return nullptr;
    clauses.push_back(request.predicate->Clone());
  }
  if (clauses.empty()) return nullptr;
  return Expr::Or(std::move(clauses));
}

Status AuxStructureProvider::MaybeBuildStructure(uint64_t active_rows,
                                                 const Expr* predicate) {
  if (config_.mode == AuxMode::kNone || predicate == nullptr) {
    return Status::OK();
  }
  bool should_build = false;
  if (!built_) {
    should_build = static_cast<double>(active_rows) <=
                   config_.build_threshold * static_cast<double>(table_rows_);
  } else if (config_.rebuild_factor > 0 && structure_rows_ > 0) {
    should_build =
        static_cast<double>(active_rows) <=
        config_.rebuild_factor * static_cast<double>(structure_rows_);
  }
  if (!should_build) return Status::OK();

  // Tear down the previous generation.
  if (built_) {
    if (!temp_table_.empty()) {
      SQLCLASS_RETURN_IF_ERROR(server_->DropTable(temp_table_));
      temp_table_.clear();
    }
    if (keyset_id_ != 0) {
      SQLCLASS_RETURN_IF_ERROR(server_->ReleaseKeyset(keyset_id_));
      keyset_id_ = 0;
    }
    tid_list_.clear();
  }

  const CostCounters saved = server_->cost_counters();
  ++generation_;
  const std::string tag =
      std::to_string(instance_) + "_" + std::to_string(generation_);
  switch (config_.mode) {
    case AuxMode::kNone:
      break;
    case AuxMode::kTempTableCopy: {
      temp_table_ = table_ + "_aux" + tag;
      SQLCLASS_RETURN_IF_ERROR(
          server_->CopyToTempTable(table_, predicate, temp_table_));
      break;
    }
    case AuxMode::kTidJoin: {
      tid_list_ = table_ + "_tids" + tag;
      SQLCLASS_RETURN_IF_ERROR(
          server_->CreateTidList(table_, predicate, tid_list_).status());
      break;
    }
    case AuxMode::kKeysetProc: {
      SQLCLASS_ASSIGN_OR_RETURN(keyset_id_,
                                server_->CreateKeyset(table_, predicate));
      break;
    }
  }
  if (config_.free_construction) {
    server_->cost_counters() = saved;  // idealized: construction is free
  }
  built_ = true;
  structure_rows_ = active_rows;
  ++structures_built_;
  return Status::OK();
}

StatusOr<std::vector<CcResult>> AuxStructureProvider::FulfillSome() {
  std::vector<CcResult> results;
  if (queue_.empty()) return results;

  std::vector<CcRequest> batch;
  while (!queue_.empty()) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  uint64_t active_rows = 0;
  for (const CcRequest& request : batch) active_rows += request.data_size;
  std::unique_ptr<Expr> predicate = UnionPredicate(batch);
  SQLCLASS_RETURN_IF_ERROR(MaybeBuildStructure(active_rows, predicate.get()));

  std::vector<const Expr*> predicates;
  predicates.reserve(batch.size());
  for (const CcRequest& request : batch) {
    predicates.push_back(request.predicate.get());
  }
  BatchMatcher matcher(predicates);
  results.reserve(batch.size());
  for (const CcRequest& request : batch) {
    results.emplace_back(request.node_id, CcTable(num_classes_));
  }

  std::unique_ptr<ServerCursor> cursor;
  if (!built_) {
    SQLCLASS_ASSIGN_OR_RETURN(cursor,
                              server_->OpenCursor(table_, predicate.get()));
  } else {
    switch (config_.mode) {
      case AuxMode::kNone:
        return Status::Internal("structure built in kNone mode");
      case AuxMode::kTempTableCopy: {
        SQLCLASS_ASSIGN_OR_RETURN(
            cursor, server_->OpenCursor(temp_table_, predicate.get()));
        break;
      }
      case AuxMode::kTidJoin: {
        SQLCLASS_ASSIGN_OR_RETURN(
            cursor,
            server_->ScanByTidJoin(table_, tid_list_, predicate.get()));
        break;
      }
      case AuxMode::kKeysetProc: {
        SQLCLASS_ASSIGN_OR_RETURN(
            cursor, server_->ScanKeyset(keyset_id_, predicate.get()));
        break;
      }
    }
  }

  const int class_column = schema_.class_column();
  Row row;
  std::vector<int> matches;
  CostCounters& cost = server_->cost_counters();
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) break;
    matcher.Match(row, &matches);
    for (int pos : matches) {
      results[pos].cc.AddRow(row, batch[pos].active_attrs, class_column);
      cost.mw_cc_updates += batch[pos].active_attrs.size();
    }
  }
  return results;
}

}  // namespace sqlclass
