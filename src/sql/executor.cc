#include "sql/executor.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>

namespace sqlclass {

namespace {

Status PlanBranch(const SelectStmt& stmt, TableProvider* provider,
                  BranchPlan* plan) {
  plan->stmt = &stmt;
  SQLCLASS_ASSIGN_OR_RETURN(plan->schema, provider->GetSchema(stmt.table));
  if (stmt.where != nullptr) {
    plan->where = stmt.where->Clone();
    SQLCLASS_RETURN_IF_ERROR(plan->where->Bind(*plan->schema));
  }
  plan->has_group_by = !stmt.group_by.empty();
  for (const std::string& col : stmt.group_by) {
    int idx = plan->schema->ColumnIndex(col);
    if (idx < 0) return Status::NotFound("unknown GROUP BY column: " + col);
    plan->group_cols.push_back(idx);
  }

  bool has_count = false;
  for (const SelectItem& item : stmt.items) {
    BranchPlan::OutItem out;
    out.kind = item.kind;
    switch (item.kind) {
      case SelectItemKind::kStar: {
        if (plan->has_group_by) {
          return Status::InvalidArgument("SELECT * with GROUP BY");
        }
        if (stmt.items.size() != 1) {
          return Status::InvalidArgument("* must be the only select item");
        }
        for (int c = 0; c < plan->schema->num_columns(); ++c) {
          BranchPlan::OutItem col;
          col.kind = SelectItemKind::kColumn;
          col.column_index = c;
          plan->out_items.push_back(col);
          plan->out_names.push_back(plan->schema->attribute(c).name);
        }
        continue;  // expanded; skip the generic push below
      }
      case SelectItemKind::kColumn: {
        int idx = plan->schema->ColumnIndex(item.column);
        if (idx < 0) {
          return Status::NotFound("unknown column: " + item.column);
        }
        out.column_index = idx;
        if (plan->has_group_by) {
          for (size_t g = 0; g < plan->group_cols.size(); ++g) {
            if (plan->group_cols[g] == idx) {
              out.group_slot = static_cast<int>(g);
              break;
            }
          }
          if (out.group_slot < 0) {
            return Status::InvalidArgument(
                "selected column not in GROUP BY: " + item.column);
          }
        }
        break;
      }
      case SelectItemKind::kIntLiteral:
        out.constant = Cell(item.int_value);
        break;
      case SelectItemKind::kStringLiteral:
        out.constant = Cell(item.text);
        break;
      case SelectItemKind::kCountStar:
        has_count = true;
        break;
      case SelectItemKind::kMin:
      case SelectItemKind::kMax:
      case SelectItemKind::kSum: {
        int idx = plan->schema->ColumnIndex(item.column);
        if (idx < 0) {
          return Status::NotFound("unknown column: " + item.column);
        }
        out.column_index = idx;
        has_count = true;  // any aggregate forces aggregate semantics
        break;
      }
    }
    plan->out_items.push_back(std::move(out));
    plan->out_names.push_back(item.OutputName());
  }
  plan->scalar_aggregate = has_count && !plan->has_group_by;
  if (plan->scalar_aggregate) {
    for (const BranchPlan::OutItem& out : plan->out_items) {
      if (out.kind == SelectItemKind::kColumn) {
        return Status::InvalidArgument(
            "bare column mixed with aggregates and no GROUP BY");
      }
    }
  }
  return Status::OK();
}

/// Accumulator state for the aggregate slots of one output group.
struct AggRow {
  int64_t count = 0;
  std::vector<int64_t> values;  // one slot per out_item (aggregates only)
};

Status ExecuteBranch(const BranchPlan& plan, TableProvider* provider,
                     ResultSet* result, ExecStats* stats) {
  SQLCLASS_ASSIGN_OR_RETURN(std::unique_ptr<RowSource> source,
                            provider->Scan(plan.stmt->table));
  ++stats->branches;

  const size_t num_items = plan.out_items.size();
  auto new_agg = [&]() {
    AggRow agg;
    agg.values.resize(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      switch (plan.out_items[i].kind) {
        case SelectItemKind::kMin:
          agg.values[i] = std::numeric_limits<int64_t>::max();
          break;
        case SelectItemKind::kMax:
          agg.values[i] = std::numeric_limits<int64_t>::min();
          break;
        default:
          agg.values[i] = 0;
      }
    }
    return agg;
  };
  auto fold = [&](AggRow* agg, const Row& row) {
    ++agg->count;
    for (size_t i = 0; i < num_items; ++i) {
      const BranchPlan::OutItem& out = plan.out_items[i];
      switch (out.kind) {
        case SelectItemKind::kMin:
          agg->values[i] = std::min(
              agg->values[i], static_cast<int64_t>(row[out.column_index]));
          break;
        case SelectItemKind::kMax:
          agg->values[i] = std::max(
              agg->values[i], static_cast<int64_t>(row[out.column_index]));
          break;
        case SelectItemKind::kSum:
          agg->values[i] += row[out.column_index];
          break;
        default:
          break;
      }
    }
  };

  auto emit = [&](const std::vector<Value>& group_key, const AggRow* agg,
                  const Row* plain_row) {
    std::vector<Cell> cells;
    cells.reserve(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      const BranchPlan::OutItem& out = plan.out_items[i];
      switch (out.kind) {
        case SelectItemKind::kColumn:
          if (plan.has_group_by) {
            cells.emplace_back(static_cast<int64_t>(group_key[out.group_slot]));
          } else {
            cells.emplace_back(static_cast<int64_t>((*plain_row)[out.column_index]));
          }
          break;
        case SelectItemKind::kCountStar:
          cells.emplace_back(agg->count);
          break;
        case SelectItemKind::kMin:
        case SelectItemKind::kMax:
        case SelectItemKind::kSum:
          // Empty-group MIN/MAX degenerate to 0 (categorical domains are
          // non-negative, and empty groups only arise in the scalar case).
          cells.emplace_back(agg->count == 0 ? int64_t{0} : agg->values[i]);
          break;
        case SelectItemKind::kIntLiteral:
        case SelectItemKind::kStringLiteral:
          cells.push_back(out.constant);
          break;
        case SelectItemKind::kStar:
          break;  // expanded at plan time
      }
    }
    result->rows.push_back(std::move(cells));
    ++stats->result_rows;
  };

  if (plan.has_group_by || plan.scalar_aggregate) {
    std::map<std::vector<Value>, AggRow> groups;
    AggRow total = new_agg();
    Row row;
    while (true) {
      SQLCLASS_ASSIGN_OR_RETURN(bool more, source->Next(&row));
      if (!more) break;
      ++stats->rows_scanned;
      if (plan.where != nullptr && !plan.where->Eval(row)) continue;
      ++stats->rows_matched;
      ++stats->rows_grouped;
      if (plan.scalar_aggregate) {
        fold(&total, row);
      } else {
        std::vector<Value> key(plan.group_cols.size());
        for (size_t g = 0; g < plan.group_cols.size(); ++g) {
          key[g] = row[plan.group_cols[g]];
        }
        auto [it, inserted] = groups.try_emplace(std::move(key), AggRow{});
        if (inserted) it->second = new_agg();
        fold(&it->second, row);
      }
    }
    if (plan.scalar_aggregate) {
      emit({}, &total, nullptr);
    } else {
      for (const auto& [key, agg] : groups) emit(key, &agg, nullptr);
    }
    return Status::OK();
  }

  // Plain projection.
  Row row;
  while (true) {
    SQLCLASS_ASSIGN_OR_RETURN(bool more, source->Next(&row));
    if (!more) break;
    ++stats->rows_scanned;
    if (plan.where != nullptr && !plan.where->Eval(row)) continue;
    ++stats->rows_matched;
    emit({}, nullptr, &row);
  }
  return Status::OK();
}

/// Applies the plan's ORDER BY keys and the query's LIMIT to the union
/// result.
void OrderAndLimit(const QueryPlan& plan, int64_t limit, ResultSet* result) {
  if (!plan.order_keys.empty()) {
    std::stable_sort(result->rows.begin(), result->rows.end(),
                     [&](const std::vector<Cell>& a,
                         const std::vector<Cell>& b) {
                       for (const auto& [index, descending] : plan.order_keys) {
                         if (a[index] == b[index]) continue;
                         return descending ? b[index] < a[index]
                                           : a[index] < b[index];
                       }
                       return false;
                     });
  }
  if (limit >= 0 && result->rows.size() > static_cast<size_t>(limit)) {
    result->rows.resize(static_cast<size_t>(limit));
  }
}

}  // namespace

StatusOr<QueryPlan> PlanQuery(const Query& query, TableProvider* provider) {
  if (query.selects.empty()) {
    return Status::InvalidArgument("empty query");
  }
  QueryPlan plan;
  plan.branches.resize(query.selects.size());
  for (size_t b = 0; b < query.selects.size(); ++b) {
    SQLCLASS_RETURN_IF_ERROR(
        PlanBranch(query.selects[b], provider, &plan.branches[b]));
    if (plan.branches[b].out_names.size() !=
        plan.branches[0].out_names.size()) {
      return Status::InvalidArgument(
          "UNION ALL branches have different column counts");
    }
  }
  const std::vector<std::string>& columns = plan.branches[0].out_names;
  for (const OrderKey& key : query.order_by) {
    const auto it = std::find(columns.begin(), columns.end(), key.column);
    if (it == columns.end()) {
      return Status::NotFound("ORDER BY names no output column: " +
                              key.column);
    }
    plan.order_keys.emplace_back(it - columns.begin(), key.descending);
  }
  return plan;
}

StatusOr<ResultSet> ExecuteQuery(const Query& query, TableProvider* provider,
                                 ExecStats* stats) {
  SQLCLASS_ASSIGN_OR_RETURN(QueryPlan plan, PlanQuery(query, provider));
  ExecStats local_stats;
  ExecStats* st = stats != nullptr ? stats : &local_stats;

  ResultSet result;
  result.column_names = plan.branches[0].out_names;
  for (const BranchPlan& branch : plan.branches) {
    SQLCLASS_RETURN_IF_ERROR(ExecuteBranch(branch, provider, &result, st));
  }
  OrderAndLimit(plan, query.limit, &result);
  return result;
}

}  // namespace sqlclass
