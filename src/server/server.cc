#include "server/server.h"

#include <cctype>
#include <cstdio>
#include <functional>

#include "common/fault_injector.h"
#include "sql/parser.h"
#include "storage/bitmap/bitmap_index.h"
#include "storage/sample/sample_file.h"

namespace sqlclass {

namespace {

/// RowSource over a heap file (physical reads metered via IoCounters only).
class HeapFileRowSource : public RowSource {
 public:
  explicit HeapFileRowSource(std::unique_ptr<HeapFileReader> reader)
      : reader_(std::move(reader)) {}

  StatusOr<bool> Next(Row* row) override {
    // Physical reads are metered inside HeapFileReader::Next; the logical
    // per-row work of the query is charged from the executor's ExecStats.
    // cost: charged-by-caller(SqlServer::Execute)
    return reader_->Next(row);
  }

 private:
  std::unique_ptr<HeapFileReader> reader_;
};

}  // namespace

// ------------------------------------------------------------ ServerCursor

ServerCursor::ServerCursor(Mode mode, std::unique_ptr<HeapFileReader> reader,
                           std::unique_ptr<Expr> filter, std::vector<Tid> tids,
                           CostCounters* counters)
    : mode_(mode),
      reader_(std::move(reader)),
      filter_(std::move(filter)),
      tids_(std::move(tids)),
      counters_(counters) {}

StatusOr<bool> ServerCursor::Next(Row* row) {
  SQLCLASS_FAULT_POINT(faults::kServerCursorAdvance);
  if (mode_ == Mode::kScan) {
    while (true) {
      SQLCLASS_ASSIGN_OR_RETURN(bool more, reader_->Next(row));
      if (!more) return false;
      ++counters_->server_rows_evaluated;
      if (filter_ != nullptr && !filter_->Eval(*row)) continue;
      ++counters_->cursor_rows_transferred;
      counters_->cursor_values_transferred += row->size();
      ++transferred_;
      return true;
    }
  }
  // kTidProbe: positioned fetches; the filter (stored procedure / join
  // residual) is applied server-side after each probe.
  while (tid_pos_ < tids_.size()) {
    Tid tid = tids_[tid_pos_++];
    SQLCLASS_RETURN_IF_ERROR(reader_->ReadAt(tid, row));
    ++counters_->index_probes;
    if (filter_ != nullptr && !filter_->Eval(*row)) continue;
    ++counters_->cursor_rows_transferred;
    counters_->cursor_values_transferred += row->size();
    ++transferred_;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------- Loader

SqlServer::Loader::Loader(SqlServer* server, std::string table,
                          std::unique_ptr<HeapFileWriter> writer,
                          const Schema* schema)
    : server_(server),
      table_(std::move(table)),
      writer_(std::move(writer)),
      schema_(schema) {}

Status SqlServer::Loader::Append(const Row& row) {
  if (!schema_->RowInDomain(row)) {
    return Status::InvalidArgument("row out of domain for table " + table_);
  }
  return writer_->Append(row);
}

Status SqlServer::Loader::Finish() {
  SQLCLASS_RETURN_IF_ERROR(writer_->Finish());
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, server_->GetState(table_));
  state->row_count = writer_->rows_written();
  state->loading = false;
  return Status::OK();
}

// --------------------------------------------------------------- SqlServer

SqlServer::SqlServer(std::string base_dir, CostModel model)
    : base_dir_(std::move(base_dir)), cost_model_(model) {}

SqlServer::~SqlServer() {
  // Table files are left on disk; callers own the base directory.
}

std::string SqlServer::TablePath(const std::string& name) const {
  return base_dir_ + "/" + name + ".tbl";
}

void SqlServer::RemoveArtifacts(TableState* state) {
  const Artifacts& built = state->artifacts;
  if (built.bitmap_index) std::remove(BitmapIndexPathFor(state->path).c_str());
  if (built.sample) std::remove(SampleFilePathFor(state->path).c_str());
  if (built.num_shards > 0) RemoveShardSetFiles(state->path, built.num_shards);
  state->artifacts = Artifacts();
}

Status SqlServer::CreateTable(const std::string& name, const Schema& schema) {
  for (char c : name) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) {
      return Status::InvalidArgument("invalid table name: " + name);
    }
  }
  SQLCLASS_RETURN_IF_ERROR(schema.Validate());
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table exists: " + name);
  }
  TableState& state = tables_[name];
  state.schema = schema;
  state.path = TablePath(name);
  return Status::OK();
}

Status SqlServer::DropTable(const std::string& name) {
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, GetState(name));
  std::remove(state->path.c_str());
  RemoveArtifacts(state);
  tables_.erase(name);
  return Status::OK();
}

bool SqlServer::HasTable(const std::string& name) const {
  return tables_.count(name) > 0;
}

StatusOr<SqlServer::TableState*> SqlServer::GetState(
    const std::string& table) {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  return &it->second;
}

StatusOr<const SqlServer::TableState*> SqlServer::GetState(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no such table: " + table);
  return static_cast<const TableState*>(&it->second);
}

StatusOr<std::unique_ptr<SqlServer::Loader>> SqlServer::OpenLoader(
    const std::string& name) {
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, GetState(name));
  if (state->loading) return Status::Internal("loader already open: " + name);
  if (state->row_count > 0) {
    return Status::InvalidArgument("table already loaded: " + name);
  }
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileWriter> writer,
      HeapFileWriter::Create(state->path, state->schema.num_columns(),
                             &io_counters_));
  state->loading = true;
  return std::unique_ptr<Loader>(
      new Loader(this, name, std::move(writer), &state->schema));
}

Status SqlServer::LoadRows(const std::string& name,
                           const std::vector<Row>& rows) {
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<Loader> loader, OpenLoader(name));
  for (const Row& row : rows) {
    SQLCLASS_RETURN_IF_ERROR(loader->Append(row));
  }
  return loader->Finish();
}

StatusOr<const Schema*> SqlServer::GetSchema(const std::string& table) {
  SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(table));
  return &state->schema;
}

StatusOr<uint64_t> SqlServer::TableRowCount(const std::string& table) const {
  SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(table));
  return state->row_count;
}

StatusOr<std::string> SqlServer::TableHeapPath(const std::string& table) const {
  SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(table));
  if (state->loading) {
    return Status::Internal("table still loading: " + table);
  }
  return state->path;
}

StatusOr<std::unique_ptr<RowSource>> SqlServer::Scan(
    const std::string& table) {
  SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(table));
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileReader> reader,
      HeapFileReader::Open(state->path, state->schema.num_columns(),
                           &io_counters_));
  return std::unique_ptr<RowSource>(
      new HeapFileRowSource(std::move(reader)));
}

Status SqlServer::AppendRows(const std::string& name,
                             const std::vector<Row>& rows) {
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, GetState(name));
  if (state->loading) return Status::Internal("loader open: " + name);
  const int num_columns = state->schema.num_columns();
  for (const Row& row : rows) {
    if (!state->schema.RowInDomain(row)) {
      return Status::InvalidArgument("row out of domain for table " + name);
    }
  }
  SQLCLASS_ASSIGN_OR_RETURN(
      std::unique_ptr<HeapFileWriter> writer,
      state->row_count == 0
          ? HeapFileWriter::Create(state->path, num_columns, &io_counters_)
          : HeapFileWriter::OpenForAppend(state->path, num_columns,
                                          &io_counters_));
  for (const Row& row : rows) {
    SQLCLASS_RETURN_IF_ERROR(writer->Append(row));
  }
  SQLCLASS_RETURN_IF_ERROR(writer->Finish());
  state->row_count += rows.size();
  // No artifact covers the new rows (a sharded scan would silently
  // undercount); rebuilding is an explicit Build*.
  RemoveArtifacts(state);
  return Status::OK();
}

StatusOr<ResultSet> SqlServer::Execute(const std::string& sql) {
  SQLCLASS_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  switch (statement.kind) {
    case Statement::Kind::kQuery: {
      ExecStats stats;
      SQLCLASS_ASSIGN_OR_RETURN(
          ResultSet result, ExecuteQuery(statement.query, this, &stats));
      cost_counters_.server_scans += stats.branches;
      cost_counters_.server_rows_evaluated += stats.rows_scanned;
      cost_counters_.server_groupby_rows += stats.rows_grouped;
      cost_counters_.result_rows_returned += stats.result_rows;
      return result;
    }
    case Statement::Kind::kCreateTable: {
      const CreateTableStmt& stmt = statement.create_table;
      std::vector<AttributeDef> attrs;
      int class_column = -1;
      for (size_t i = 0; i < stmt.columns.size(); ++i) {
        AttributeDef attr;
        attr.name = stmt.columns[i].name;
        attr.cardinality = stmt.columns[i].cardinality;
        attrs.push_back(std::move(attr));
        if (stmt.columns[i].is_class) {
          if (class_column >= 0) {
            return Status::InvalidArgument("multiple CLASS columns");
          }
          class_column = static_cast<int>(i);
        }
      }
      SQLCLASS_RETURN_IF_ERROR(
          CreateTable(stmt.table, Schema(std::move(attrs), class_column)));
      ResultSet result;
      result.column_names = {"status"};
      result.rows.push_back({Cell(std::string("OK"))});
      return result;
    }
    case Statement::Kind::kDropTable: {
      SQLCLASS_RETURN_IF_ERROR(DropTable(statement.drop_table.table));
      ResultSet result;
      result.column_names = {"status"};
      result.rows.push_back({Cell(std::string("OK"))});
      return result;
    }
    case Statement::Kind::kInsert: {
      const InsertStmt& stmt = statement.insert;
      std::vector<Row> rows;
      rows.reserve(stmt.rows.size());
      for (const auto& values : stmt.rows) {
        Row row;
        row.reserve(values.size());
        for (int64_t v : values) row.push_back(static_cast<Value>(v));
        rows.push_back(std::move(row));
      }
      SQLCLASS_RETURN_IF_ERROR(AppendRows(stmt.table, rows));
      ResultSet result;
      result.column_names = {"rows_inserted"};
      result.rows.push_back({Cell(static_cast<int64_t>(rows.size()))});
      return result;
    }
  }
  return Status::Internal("unreachable statement kind");
}

StatusOr<std::string> SqlServer::Explain(const std::string& sql) {
  SQLCLASS_ASSIGN_OR_RETURN(Statement statement, ParseStatement(sql));
  if (statement.kind != Statement::Kind::kQuery) {
    return Status::InvalidArgument("EXPLAIN supports queries only");
  }
  const Query& query = statement.query;
  SQLCLASS_RETURN_IF_ERROR(PlanQuery(query, this).status());
  std::string out;
  for (size_t b = 0; b < query.selects.size(); ++b) {
    const SelectStmt& stmt = query.selects[b];
    SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(stmt.table));
    out += "branch " + std::to_string(b + 1) + ": seq scan on " + stmt.table +
           " (" + std::to_string(state->row_count) + " rows)";
    if (stmt.where != nullptr) out += ", filter " + stmt.where->ToSql();
    if (!stmt.group_by.empty()) {
      out += ", group by";
      for (const std::string& column : stmt.group_by) out += " " + column;
    }
    out += "\n";
  }
  if (!query.order_by.empty()) {
    out += "sort:";
    for (const OrderKey& key : query.order_by) {
      out += " " + key.column + (key.descending ? " desc" : "");
    }
    out += "\n";
  }
  if (query.limit >= 0) {
    out += "limit: " + std::to_string(query.limit) + "\n";
  }
  return out;
}

StatusOr<std::unique_ptr<ServerCursor>> SqlServer::OpenCursor(
    const std::string& table, const Expr* filter) {
  SQLCLASS_ASSIGN_OR_RETURN(BoundScan scan, OpenScan(table, filter));
  return std::unique_ptr<ServerCursor>(
      new ServerCursor(ServerCursor::Mode::kScan, std::move(scan.reader),
                       std::move(scan.filter), {}, &cost_counters_));
}

void SqlServer::ChargeBuild(uint64_t rows, uint64_t copies) {
  ++cost_counters_.server_scans;
  cost_counters_.server_rows_evaluated += rows;
  cost_counters_.index_rows_inserted += rows * copies;
}

Status SqlServer::BuildBitmapIndex(const std::string& table) {
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, GetState(table));
  if (state->loading) return Status::Internal("loader open: " + table);
  if (state->artifacts.bitmap_index) {
    return Status::AlreadyExists("bitmap index exists on " + table);
  }
  std::vector<uint32_t> cardinalities;
  cardinalities.reserve(state->schema.num_columns());
  for (const AttributeDef& attr : state->schema.attributes()) {
    if (attr.cardinality <= 0) {
      return Status::InvalidArgument("column " + attr.name +
                                     " has no finite domain to index");
    }
    cardinalities.push_back(static_cast<uint32_t>(attr.cardinality));
  }
  SQLCLASS_ASSIGN_OR_RETURN(
      uint64_t rows,
      BitmapIndexBuilder::BuildFromHeapFile(state->path,
                                            std::move(cardinalities),
                                            BitmapIndexPathFor(state->path),
                                            &io_counters_));
  ChargeBuild(rows, 1);
  state->artifacts.bitmap_index = true;
  return Status::OK();
}

bool SqlServer::HasBitmapIndex(const std::string& table) const {
  return BitmapIndexPath(table).ok();
}

StatusOr<std::string> SqlServer::BitmapIndexPath(
    const std::string& table) const {
  auto state = GetState(table);
  if (!state.ok() || !(*state)->artifacts.bitmap_index) {
    return Status::NotFound("no bitmap index on " + table);
  }
  return BitmapIndexPathFor((*state)->path);
}

Status SqlServer::DropBitmapIndex(const std::string& table) {
  SQLCLASS_ASSIGN_OR_RETURN(std::string path, BitmapIndexPath(table));
  std::remove(path.c_str());
  tables_[table].artifacts.bitmap_index = false;
  return Status::OK();
}

Status SqlServer::BuildSampleTable(const std::string& table,
                                   double sampling_ratio, uint64_t seed) {
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, GetState(table));
  if (state->loading) return Status::Internal("loader open: " + table);
  if (state->artifacts.sample) {
    return Status::AlreadyExists("sample table exists on " + table);
  }
  if (!(sampling_ratio > 0.0) || sampling_ratio > 1.0) {
    return Status::InvalidArgument("sampling ratio must be in (0, 1]");
  }
  SQLCLASS_ASSIGN_OR_RETURN(
      uint64_t rows,
      SampleFileBuilder::BuildFromHeapFile(
          state->path, state->schema.num_columns(), sampling_ratio, seed,
          SampleFilePathFor(state->path), &io_counters_));
  ChargeBuild(rows, 1);
  state->artifacts.sample = true;
  return Status::OK();
}

bool SqlServer::HasSampleTable(const std::string& table) const {
  return SampleTablePath(table).ok();
}

StatusOr<std::string> SqlServer::SampleTablePath(
    const std::string& table) const {
  auto state = GetState(table);
  if (!state.ok() || !(*state)->artifacts.sample) {
    return Status::NotFound("no sample table on " + table);
  }
  return SampleFilePathFor((*state)->path);
}

Status SqlServer::DropSampleTable(const std::string& table) {
  SQLCLASS_ASSIGN_OR_RETURN(std::string path, SampleTablePath(table));
  std::remove(path.c_str());
  tables_[table].artifacts.sample = false;
  return Status::OK();
}

Status SqlServer::BuildShardSet(const std::string& table, uint32_t num_shards,
                                ShardScheme scheme, bool with_replicas) {
  SQLCLASS_ASSIGN_OR_RETURN(TableState * state, GetState(table));
  if (state->loading) return Status::Internal("loader open: " + table);
  if (state->artifacts.num_shards > 0) {
    return Status::AlreadyExists("shard set exists on " + table);
  }
  StatusOr<uint64_t> rows = ShardSetWriter::BuildFromHeapFile(
      state->path, state->schema.num_columns(), num_shards, scheme,
      &io_counters_, with_replicas);
  if (!rows.ok()) {
    RemoveShardSetFiles(state->path, num_shards);
    return rows.status();
  }
  // A replica set writes every row twice.
  ChargeBuild(rows.value(), with_replicas ? 2 : 1);
  state->artifacts.num_shards = num_shards;
  return Status::OK();
}

bool SqlServer::HasShardSet(const std::string& table) const {
  return ShardSetPath(table).ok();
}

StatusOr<std::string> SqlServer::ShardSetPath(const std::string& table) const {
  auto state = GetState(table);
  if (!state.ok() || (*state)->artifacts.num_shards == 0) {
    return Status::NotFound("no shard set on " + table);
  }
  return ShardMapPathFor((*state)->path);
}

Status SqlServer::DropShardSet(const std::string& table) {
  SQLCLASS_RETURN_IF_ERROR(ShardSetPath(table).status());
  TableState& state = tables_[table];
  RemoveShardSetFiles(state.path, state.artifacts.num_shards);
  state.artifacts.num_shards = 0;
  return Status::OK();
}

StatusOr<SqlServer::BoundScan> SqlServer::OpenScan(const std::string& table,
                                                   const Expr* filter) {
  SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(table));
  BoundScan scan;
  if (filter != nullptr) {
    scan.filter = filter->Clone();
    SQLCLASS_RETURN_IF_ERROR(scan.filter->Bind(state->schema));
  }
  SQLCLASS_ASSIGN_OR_RETURN(
      scan.reader, HeapFileReader::Open(state->path,
                                        state->schema.num_columns(),
                                        &io_counters_));
  ++cost_counters_.server_scans;
  return scan;
}

Status SqlServer::ServerSideScan(
    const std::string& src, const Expr* filter,
    const std::function<Status(Tid, const Row&)>& fn) {
  SQLCLASS_ASSIGN_OR_RETURN(BoundScan scan, OpenScan(src, filter));
  Row row;
  Tid tid = 0;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, scan.reader->Next(&row));
    if (!more) break;
    ++cost_counters_.server_rows_evaluated;
    if (scan.filter == nullptr || scan.filter->Eval(row)) {
      SQLCLASS_RETURN_IF_ERROR(fn(tid, row));
    }
    ++tid;
  }
  return Status::OK();
}

Status SqlServer::CopyToTempTable(const std::string& src, const Expr* filter,
                                  const std::string& temp_name) {
  SQLCLASS_ASSIGN_OR_RETURN(const TableState* state, GetState(src));
  SQLCLASS_RETURN_IF_ERROR(CreateTable(temp_name, state->schema));
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<Loader> loader,
                            OpenLoader(temp_name));
  Status scan_status =
      ServerSideScan(src, filter, [&](Tid, const Row& row) -> Status {
        ++cost_counters_.temp_table_rows_written;
        return loader->Append(row);
      });
  SQLCLASS_RETURN_IF_ERROR(scan_status);
  return loader->Finish();
}

StatusOr<uint64_t> SqlServer::CreateTidList(const std::string& src,
                                            const Expr* filter,
                                            const std::string& list_name) {
  if (tid_lists_.count(list_name) > 0) {
    return Status::AlreadyExists("tid list exists: " + list_name);
  }
  std::vector<Tid> tids;
  SQLCLASS_RETURN_IF_ERROR(
      ServerSideScan(src, filter, [&](Tid tid, const Row&) -> Status {
        ++cost_counters_.temp_table_rows_written;
        tids.push_back(tid);
        return Status::OK();
      }));
  uint64_t count = tids.size();
  tid_lists_[list_name] = std::move(tids);
  return count;
}

StatusOr<std::unique_ptr<ServerCursor>> SqlServer::ScanByTidJoin(
    const std::string& src, const std::string& list_name,
    const Expr* extra_filter) {
  auto it = tid_lists_.find(list_name);
  if (it == tid_lists_.end()) {
    return Status::NotFound("no such tid list: " + list_name);
  }
  SQLCLASS_ASSIGN_OR_RETURN(BoundScan scan, OpenScan(src, extra_filter));
  return std::unique_ptr<ServerCursor>(
      new ServerCursor(ServerCursor::Mode::kTidProbe, std::move(scan.reader),
                       std::move(scan.filter), it->second, &cost_counters_));
}

StatusOr<uint64_t> SqlServer::CreateKeyset(const std::string& table,
                                           const Expr* filter) {
  Keyset keyset;
  keyset.table = table;
  SQLCLASS_RETURN_IF_ERROR(
      ServerSideScan(table, filter, [&](Tid tid, const Row&) -> Status {
        keyset.tids.push_back(tid);
        return Status::OK();
      }));
  uint64_t id = next_keyset_id_++;
  keysets_[id] = std::move(keyset);
  return id;
}

StatusOr<std::unique_ptr<ServerCursor>> SqlServer::ScanKeyset(
    uint64_t keyset_id, const Expr* proc_filter) {
  auto it = keysets_.find(keyset_id);
  if (it == keysets_.end()) {
    return Status::NotFound("no such keyset: " + std::to_string(keyset_id));
  }
  const Keyset& keyset = it->second;
  SQLCLASS_ASSIGN_OR_RETURN(BoundScan scan,
                            OpenScan(keyset.table, proc_filter));
  return std::unique_ptr<ServerCursor>(
      new ServerCursor(ServerCursor::Mode::kTidProbe, std::move(scan.reader),
                       std::move(scan.filter), keyset.tids, &cost_counters_));
}

Status SqlServer::ReleaseKeyset(uint64_t keyset_id) {
  if (keysets_.erase(keyset_id) == 0) {
    return Status::NotFound("no such keyset: " + std::to_string(keyset_id));
  }
  return Status::OK();
}

}  // namespace sqlclass
