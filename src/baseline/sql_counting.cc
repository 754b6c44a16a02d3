#include "baseline/sql_counting.h"

#include "middleware/batch_executor.h"
#include "mining/cc_sql.h"

namespace sqlclass {

SqlCountingProvider::SqlCountingProvider(SqlServer* server, std::string table,
                                         Schema schema, uint64_t table_rows)
    : server_(server),
      table_(std::move(table)),
      schema_(std::move(schema)),
      num_classes_(schema_.attribute(schema_.class_column()).cardinality),
      table_rows_(table_rows) {}

StatusOr<std::unique_ptr<SqlCountingProvider>> SqlCountingProvider::Create(
    SqlServer* server, const std::string& table) {
  SQLCLASS_ASSIGN_OR_RETURN(const Schema* schema, server->GetSchema(table));
  if (!schema->has_class_column()) {
    return Status::InvalidArgument("table has no class column: " + table);
  }
  SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, server->TableRowCount(table));
  return std::unique_ptr<SqlCountingProvider>(
      new SqlCountingProvider(server, table, *schema, rows));
}

Status SqlCountingProvider::QueueRequest(CcRequest request) {
  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(schema_, table_rows_, &request));
  queue_.push_back(std::move(request));
  return Status::OK();
}

StatusOr<std::vector<CcResult>> SqlCountingProvider::FulfillSome() {
  std::vector<CcResult> results;
  while (!queue_.empty()) {
    CcRequest request = std::move(queue_.front());
    queue_.pop_front();
    const Expr* predicate = request.predicate->kind() == ExprKind::kTrue
                                ? nullptr
                                : request.predicate.get();
    const std::string sql =
        BuildCcQuerySql(table_, schema_, request.active_attrs, predicate);
    SQLCLASS_ASSIGN_OR_RETURN(ResultSet result, server_->Execute(sql));
    ++queries_executed_;
    const std::string& totals_attr =
        schema_.attribute(request.active_attrs[0]).name;
    SQLCLASS_ASSIGN_OR_RETURN(
        CcTable cc,
        CcFromResultSet(result, schema_, num_classes_, totals_attr));
    results.emplace_back(request.node_id, std::move(cc));
  }
  return results;
}

}  // namespace sqlclass
