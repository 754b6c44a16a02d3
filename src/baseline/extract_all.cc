#include "baseline/extract_all.h"

#include <cstdio>

#include "middleware/batch_executor.h"
#include "middleware/batch_matcher.h"

namespace sqlclass {

ExtractAllProvider::ExtractAllProvider(SqlServer* server, std::string table,
                                       Schema schema, uint64_t table_rows,
                                       std::string path, bool batch_counting)
    : server_(server),
      table_(std::move(table)),
      schema_(std::move(schema)),
      num_classes_(schema_.attribute(schema_.class_column()).cardinality),
      table_rows_(table_rows),
      path_(std::move(path)),
      batch_counting_(batch_counting) {}

ExtractAllProvider::~ExtractAllProvider() {
  if (extracted_) std::remove(path_.c_str());
}

StatusOr<std::unique_ptr<ExtractAllProvider>> ExtractAllProvider::Create(
    SqlServer* server, const std::string& table, const std::string& dir,
    bool batch_counting) {
  SQLCLASS_ASSIGN_OR_RETURN(const Schema* schema, server->GetSchema(table));
  if (!schema->has_class_column()) {
    return Status::InvalidArgument("table has no class column: " + table);
  }
  SQLCLASS_ASSIGN_OR_RETURN(uint64_t rows, server->TableRowCount(table));
  const std::string path = dir + "/extract_" + table + ".dat";
  return std::unique_ptr<ExtractAllProvider>(new ExtractAllProvider(
      server, table, *schema, rows, path, batch_counting));
}

Status ExtractAllProvider::QueueRequest(CcRequest request) {
  SQLCLASS_RETURN_IF_ERROR(PrepareRequest(schema_, table_rows_, &request));
  queue_.push_back(std::move(request));
  return Status::OK();
}

Status ExtractAllProvider::ExtractOnce() {
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<ServerCursor> cursor,
                            server_->OpenCursor(table_, nullptr));
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileWriter> writer,
      HeapFileWriter::Create(path_, schema_.num_columns(), &io_));
  CostCounters& cost = server_->cost_counters();
  Row row;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, cursor->Next(&row));
    if (!more) break;
    SQLCLASS_RETURN_IF_ERROR(writer->Append(row));
    ++cost.mw_file_rows_written;
  }
  SQLCLASS_RETURN_IF_ERROR(writer->Finish());
  extracted_ = true;
  return Status::OK();
}

StatusOr<std::vector<CcResult>> ExtractAllProvider::FulfillSome() {
  std::vector<CcResult> results;
  if (queue_.empty()) return results;
  if (!extracted_) SQLCLASS_RETURN_IF_ERROR(ExtractOnce());

  // Traditional-client semantics (the default): one node per file scan.
  // With batch_counting, one scan services the whole frontier.
  std::vector<CcRequest> batch;
  if (batch_counting_) {
    while (!queue_.empty()) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  } else {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
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

  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> reader,
      HeapFileReader::Open(path_, schema_.num_columns(), &io_));
  CostCounters& cost = server_->cost_counters();
  const int class_column = schema_.class_column();
  Row row;
  std::vector<int> matches;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, reader->Next(&row));
    if (!more) break;
    ++cost.mw_file_rows_read;
    matcher.Match(row, &matches);
    for (int pos : matches) {
      results[pos].cc.AddRow(row, batch[pos].active_attrs, class_column);
      cost.mw_cc_updates += batch[pos].active_attrs.size();
    }
  }
  ++file_scans_;
  return results;
}

}  // namespace sqlclass
