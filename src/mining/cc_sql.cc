#include "mining/cc_sql.h"

namespace sqlclass {

std::string BuildCcQuerySql(const std::string& table, const Schema& schema,
                            const std::vector<int>& attr_columns,
                            const Expr* predicate) {
  const std::string class_name =
      schema.attribute(schema.class_column()).name;
  std::string sql;
  for (size_t i = 0; i < attr_columns.size(); ++i) {
    const std::string& attr_name = schema.attribute(attr_columns[i]).name;
    if (i > 0) sql += " UNION ALL ";
    sql += "SELECT '" + attr_name + "' AS attr_name, " + attr_name +
           " AS value, " + class_name + ", COUNT(*) FROM " + table;
    if (predicate != nullptr) {
      sql += " WHERE " + predicate->ToSql();
    }
    sql += " GROUP BY " + class_name + ", " + attr_name;
  }
  return sql;
}

StatusOr<CcTable> CcFromResultSet(const ResultSet& result,
                                  const Schema& schema, int num_classes,
                                  const std::string& class_totals_attr) {
  if (result.num_columns() != 4) {
    return Status::InvalidArgument("CC result must have 4 columns");
  }
  CcTable cc(num_classes);
  for (const auto& row : result.rows) {
    const std::string& attr_name = CellText(row[0]);
    int attr = schema.ColumnIndex(attr_name);
    if (attr < 0) return Status::NotFound("unknown attribute: " + attr_name);
    const Value value = static_cast<Value>(CellInt(row[1]));
    const Value class_value = static_cast<Value>(CellInt(row[2]));
    const int64_t count = CellInt(row[3]);
    if (class_value < 0 || class_value >= num_classes) {
      return Status::InvalidArgument("class value out of range");
    }
    if (value < 0 || value >= schema.attribute(attr).cardinality) {
      return Status::InvalidArgument("value out of range for " + attr_name);
    }
    cc.Add(attr, value, class_value, count);
    if (attr_name == class_totals_attr) {
      cc.AddClassTotal(class_value, count);
    }
  }
  return cc;
}

}  // namespace sqlclass
