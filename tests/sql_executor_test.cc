#include "sql/executor.h"

#include <gtest/gtest.h>

#include <map>

#include "sql/parser.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;

/// Trivial provider over in-memory vectors (the executor never sees storage).
class VectorTableProvider : public TableProvider {
 public:
  void AddTable(const std::string& name, Schema schema,
                std::vector<Row> rows) {
    tables_[name] = {std::move(schema), std::move(rows)};
  }

  StatusOr<const Schema*> GetSchema(const std::string& table) override {
    auto it = tables_.find(table);
    if (it == tables_.end()) return Status::NotFound("no table " + table);
    return &it->second.schema;
  }

  StatusOr<std::unique_ptr<RowSource>> Scan(
      const std::string& table) override {
    auto it = tables_.find(table);
    if (it == tables_.end()) return Status::NotFound("no table " + table);
    return std::unique_ptr<RowSource>(new VectorSource(&it->second.rows));
  }

 private:
  struct Table {
    Schema schema;
    std::vector<Row> rows;
  };
  class VectorSource : public RowSource {
   public:
    explicit VectorSource(const std::vector<Row>* rows) : rows_(rows) {}
    StatusOr<bool> Next(Row* row) override {
      if (pos_ >= rows_->size()) return false;
      *row = (*rows_)[pos_++];
      return true;
    }

   private:
    const std::vector<Row>* rows_;
    size_t pos_ = 0;
  };

  std::map<std::string, Table> tables_;
};

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = MakeSchema({2, 3}, 2);
    // Rows: (A1, A2, class)
    rows_ = {{0, 0, 0}, {0, 1, 1}, {1, 0, 0}, {1, 1, 1},
             {1, 2, 0}, {0, 2, 1}, {1, 2, 1}, {0, 0, 0}};
    provider_.AddTable("t", schema_, rows_);
  }

  StatusOr<ResultSet> Run(const std::string& sql) {
    SQLCLASS_ASSIGN_OR_RETURN(Query query, ParseQuery(sql));
    return ExecuteQuery(query, &provider_, &stats_);
  }

  Schema schema_;
  std::vector<Row> rows_;
  VectorTableProvider provider_;
  ExecStats stats_;
};

TEST_F(ExecutorTest, SelectStarReturnsEverything) {
  auto result = Run("SELECT * FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), rows_.size());
  EXPECT_EQ(result->column_names,
            (std::vector<std::string>{"A1", "A2", "class"}));
  EXPECT_EQ(CellInt(result->rows[1][1]), 1);
}

TEST_F(ExecutorTest, WhereFilters) {
  auto result = Run("SELECT * FROM t WHERE A1 = 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 4u);
  for (const auto& row : result->rows) {
    EXPECT_EQ(CellInt(row[0]), 0);
  }
}

TEST_F(ExecutorTest, ProjectionOfColumnsAndLiterals) {
  auto result = Run("SELECT class, 7, 'tag' AS label FROM t WHERE A2 = 2");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(result->column_names,
            (std::vector<std::string>{"class", "7", "label"}));
  EXPECT_EQ(CellInt(result->rows[0][1]), 7);
  EXPECT_EQ(CellText(result->rows[0][2]), "tag");
}

TEST_F(ExecutorTest, ScalarCount) {
  auto result = Run("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(CellInt(result->rows[0][0]), 8);
}

TEST_F(ExecutorTest, ScalarCountWithWhere) {
  auto result = Run("SELECT COUNT(*) FROM t WHERE A1 = 1 AND A2 <> 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CellInt(result->rows[0][0]), 3);
}

TEST_F(ExecutorTest, GroupByCounts) {
  auto result = Run("SELECT class, COUNT(*) FROM t GROUP BY class");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  // Deterministic key order: class 0 first.
  EXPECT_EQ(CellInt(result->rows[0][0]), 0);
  EXPECT_EQ(CellInt(result->rows[0][1]), 4);
  EXPECT_EQ(CellInt(result->rows[1][1]), 4);
}

TEST_F(ExecutorTest, GroupByTwoColumnsMatchesManualAggregation) {
  auto result = Run("SELECT class, A2, COUNT(*) FROM t GROUP BY class, A2");
  ASSERT_TRUE(result.ok());
  std::map<std::pair<int64_t, int64_t>, int64_t> expected;
  for (const Row& row : rows_) ++expected[{row[2], row[1]}];
  ASSERT_EQ(result->num_rows(), expected.size());
  for (const auto& out : result->rows) {
    EXPECT_EQ(CellInt(out[2]),
              expected.at({CellInt(out[0]), CellInt(out[1])}));
  }
}

TEST_F(ExecutorTest, CcShapedQueryWithLiterals) {
  auto result = Run(
      "SELECT 'A2' AS attr_name, A2 AS value, class, COUNT(*) FROM t "
      "WHERE A1 = 1 GROUP BY class, A2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // A1=1 rows: (1,0,0),(1,1,1),(1,2,0),(1,2,1) -> 4 groups.
  EXPECT_EQ(result->num_rows(), 4u);
  for (const auto& row : result->rows) {
    EXPECT_EQ(CellText(row[0]), "A2");
    EXPECT_EQ(CellInt(row[3]), 1);
  }
}

TEST_F(ExecutorTest, UnionAllConcatenatesBranches) {
  auto result = Run(
      "SELECT 'x' AS tag, COUNT(*) FROM t WHERE A1 = 0 UNION ALL "
      "SELECT 'y' AS tag, COUNT(*) FROM t WHERE A1 = 1");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 2u);
  EXPECT_EQ(CellInt(result->rows[0][1]), 4);
  EXPECT_EQ(CellInt(result->rows[1][1]), 4);
  EXPECT_EQ(stats_.branches, 2u);
}

TEST_F(ExecutorTest, EachUnionBranchRescansTheTable) {
  // The deliberate 1999-optimizer fidelity point: N branches => N scans.
  auto result = Run(
      "SELECT COUNT(*) FROM t UNION ALL SELECT COUNT(*) FROM t "
      "UNION ALL SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats_.branches, 3u);
  EXPECT_EQ(stats_.rows_scanned, 3 * rows_.size());
}

TEST_F(ExecutorTest, StatsCountMatchedAndGroupedRows) {
  ASSERT_TRUE(Run("SELECT class, COUNT(*) FROM t WHERE A1 = 0 "
                  "GROUP BY class")
                  .ok());
  EXPECT_EQ(stats_.rows_scanned, rows_.size());
  EXPECT_EQ(stats_.rows_matched, 4u);
  EXPECT_EQ(stats_.rows_grouped, 4u);
  EXPECT_EQ(stats_.result_rows, 2u);
}

TEST_F(ExecutorTest, UnknownTableFails) {
  EXPECT_FALSE(Run("SELECT * FROM nope").ok());
}

TEST_F(ExecutorTest, UnknownColumnFails) {
  EXPECT_FALSE(Run("SELECT nope FROM t").ok());
  EXPECT_FALSE(Run("SELECT * FROM t WHERE nope = 1").ok());
  EXPECT_FALSE(Run("SELECT COUNT(*) FROM t GROUP BY nope").ok());
}

TEST_F(ExecutorTest, SelectedColumnMustBeGrouped) {
  EXPECT_FALSE(Run("SELECT A1, COUNT(*) FROM t GROUP BY A2").ok());
}

TEST_F(ExecutorTest, BareColumnWithScalarCountFails) {
  EXPECT_FALSE(Run("SELECT A1, COUNT(*) FROM t").ok());
}

TEST_F(ExecutorTest, UnionBranchesMustAgreeOnColumnCount) {
  EXPECT_FALSE(Run("SELECT A1, A2 FROM t UNION ALL SELECT A1 FROM t").ok());
}

TEST_F(ExecutorTest, EmptyGroupByResultOnEmptyMatch) {
  auto result = Run("SELECT class, COUNT(*) FROM t WHERE A2 = 1 AND A2 = 2 "
                    "GROUP BY class");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(ExecutorTest, ScalarCountOnEmptyMatchIsZeroRow) {
  auto result = Run("SELECT COUNT(*) FROM t WHERE A1 = 1 AND A1 = 0");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(CellInt(result->rows[0][0]), 0);
}

TEST_F(ExecutorTest, ResultSetToStringRenders) {
  auto result = Run("SELECT class, COUNT(*) FROM t GROUP BY class");
  ASSERT_TRUE(result.ok());
  std::string rendered = result->ToString();
  EXPECT_NE(rendered.find("class"), std::string::npos);
  EXPECT_NE(rendered.find("count"), std::string::npos);
}

TEST_F(ExecutorTest, RandomizedGroupByMatchesBruteForce) {
  Schema schema = MakeSchema({5, 7, 3}, 4);
  std::vector<Row> rows = RandomRows(schema, 2000, 77);
  provider_.AddTable("r", schema, rows);
  auto result = Run(
      "SELECT A2, class, COUNT(*) FROM r WHERE A1 <> 3 GROUP BY A2, class");
  ASSERT_TRUE(result.ok());
  std::map<std::pair<int64_t, int64_t>, int64_t> expected;
  for (const Row& row : rows) {
    if (row[0] != 3) ++expected[{row[1], row[3]}];
  }
  ASSERT_EQ(result->num_rows(), expected.size());
  for (const auto& out : result->rows) {
    EXPECT_EQ(CellInt(out[2]),
              expected.at({CellInt(out[0]), CellInt(out[1])}));
  }
}

}  // namespace
}  // namespace sqlclass
