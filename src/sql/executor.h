#ifndef SQLCLASS_SQL_EXECUTOR_H_
#define SQLCLASS_SQL_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"
#include "sql/result_set.h"
#include "sql/row_source.h"

namespace sqlclass {

/// Logical work done by one query execution; the server translates these
/// into cost-model charges.
struct ExecStats {
  uint64_t branches = 0;       // UNION ALL branches executed
  uint64_t rows_scanned = 0;   // rows read from base tables (sum per branch)
  uint64_t rows_matched = 0;   // rows surviving the WHERE clause
  uint64_t rows_grouped = 0;   // rows fed into GROUP BY aggregation
  uint64_t result_rows = 0;    // rows in the final result set

  void Add(const ExecStats& other) {
    branches += other.branches;
    rows_scanned += other.rows_scanned;
    rows_matched += other.rows_matched;
    rows_grouped += other.rows_grouped;
    result_rows += other.result_rows;
  }
};

/// One SELECT branch resolved against its table's schema, ready to execute.
struct BranchPlan {
  const SelectStmt* stmt = nullptr;  // the branch's statement in the Query
  const Schema* schema = nullptr;
  std::unique_ptr<Expr> where;      // bound copy, or null
  std::vector<int> group_cols;      // schema indexes of GROUP BY columns
  bool has_group_by = false;
  bool scalar_aggregate = false;    // aggregates with no GROUP BY

  // For each select item, how to produce the output cell:
  //  kColumn:        schema index (must be grouped if grouping)
  //  kCountStar:     marked
  //  literals:       constant cells
  struct OutItem {
    SelectItemKind kind;
    int column_index = -1;   // for kColumn
    int group_slot = -1;     // position within the group key, if grouping
    Cell constant;
  };
  std::vector<OutItem> out_items;
  std::vector<std::string> out_names;
};

/// A query checked against its tables without reading a row. Points into
/// the Query it was planned from, which must outlive it.
struct QueryPlan {
  std::vector<BranchPlan> branches;  // one per UNION ALL branch
  /// ORDER BY keys as (output column index, descending).
  std::vector<std::pair<size_t, bool>> order_keys;
};

/// Makes every check ExecuteQuery makes before it reads a row: each
/// branch's table, WHERE columns, GROUP BY columns and select list, equal
/// UNION ALL widths, and ORDER BY keys that name an output column. EXPLAIN
/// calls it so that it rejects exactly the queries Execute rejects.
[[nodiscard]] StatusOr<QueryPlan> PlanQuery(const Query& query,
                                            TableProvider* provider);

/// Executes a parsed query against `provider` tables.
///
/// Deliberate fidelity point (§2.3): each UNION ALL branch performs its own
/// full scan of its base table. The 1999-era optimizers the paper measured
/// could not share scans across the branches of the CC-table UNION query;
/// that inefficiency is exactly what makes the middleware's batched
/// single-scan counting pay off, so this executor reproduces it.
///
/// Supported shapes:
///  * projection (columns / literals / `*`), optional WHERE
///  * GROUP BY with any mix of grouped columns, literals, COUNT(*)
///  * scalar COUNT(*) without GROUP BY
/// Group output ordering is deterministic (lexicographic by key).
[[nodiscard]] StatusOr<ResultSet> ExecuteQuery(const Query& query, TableProvider* provider,
                                 ExecStats* stats);

}  // namespace sqlclass

#endif  // SQLCLASS_SQL_EXECUTOR_H_
