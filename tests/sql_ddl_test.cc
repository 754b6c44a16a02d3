// DDL / DML statements, aggregates, ORDER BY and LIMIT — the SQL-engine
// features beyond the classification hot path.

#include <gtest/gtest.h>

#include "server/server.h"
#include "sql/parser.h"
#include "storage/heap_file.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::TempDir;

// --------------------------------------------------------------- parsing

TEST(StatementParseTest, CreateTable) {
  auto statement = ParseStatement(
      "CREATE TABLE t (a CAT(4), b CAT(2), class CAT(3) CLASS)");
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  ASSERT_EQ(statement->kind, Statement::Kind::kCreateTable);
  const CreateTableStmt& stmt = statement->create_table;
  EXPECT_EQ(stmt.table, "t");
  ASSERT_EQ(stmt.columns.size(), 3u);
  EXPECT_EQ(stmt.columns[0].name, "a");
  EXPECT_EQ(stmt.columns[0].cardinality, 4);
  EXPECT_FALSE(stmt.columns[0].is_class);
  EXPECT_TRUE(stmt.columns[2].is_class);
}

TEST(StatementParseTest, ClassStaysUsableAsColumnName) {
  // "class" and "cat" are contextual, not reserved.
  auto query = ParseQuery("SELECT class, COUNT(*) FROM t GROUP BY class");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto query2 = ParseQuery("SELECT cat FROM t WHERE cat = 1");
  ASSERT_TRUE(query2.ok());
}

TEST(StatementParseTest, DropTable) {
  auto statement = ParseStatement("DROP TABLE victims");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->kind, Statement::Kind::kDropTable);
  EXPECT_EQ(statement->drop_table.table, "victims");
}

TEST(StatementParseTest, InsertMultipleTuples) {
  auto statement =
      ParseStatement("INSERT INTO t VALUES (1, 2, 0), (3, 1, 1)");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->kind, Statement::Kind::kInsert);
  ASSERT_EQ(statement->insert.rows.size(), 2u);
  EXPECT_EQ(statement->insert.rows[1],
            (std::vector<int64_t>{3, 1, 1}));
}

TEST(StatementParseTest, QueryFallsThrough) {
  auto statement = ParseStatement("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->kind, Statement::Kind::kQuery);
}

TEST(StatementParseTest, Malformed) {
  EXPECT_FALSE(ParseStatement("CREATE t (a CAT(2))").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a INT)").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t (a CAT(0))").ok());
  EXPECT_FALSE(ParseStatement("INSERT t VALUES (1)").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t VALUES 1, 2").ok());
  EXPECT_FALSE(ParseStatement("DROP TABLE").ok());
}

TEST(StatementParseTest, OrderByAndLimit) {
  auto query = ParseQuery(
      "SELECT A1, COUNT(*) FROM t GROUP BY A1 ORDER BY count DESC, A1 "
      "LIMIT 5");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->order_by.size(), 2u);
  EXPECT_EQ(query->order_by[0].column, "count");
  EXPECT_TRUE(query->order_by[0].descending);
  EXPECT_FALSE(query->order_by[1].descending);
  EXPECT_EQ(query->limit, 5);
  // Round trip.
  auto reparsed = ParseQuery(query->ToSql());
  ASSERT_TRUE(reparsed.ok()) << query->ToSql();
  EXPECT_EQ(reparsed->ToSql(), query->ToSql());
}

TEST(StatementParseTest, AggregateItems) {
  auto query =
      ParseQuery("SELECT MIN(a), MAX(a) AS top, SUM(b) FROM t");
  ASSERT_TRUE(query.ok());
  const auto& items = query->selects[0].items;
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].kind, SelectItemKind::kMin);
  EXPECT_EQ(items[1].kind, SelectItemKind::kMax);
  EXPECT_EQ(items[1].alias, "top");
  EXPECT_EQ(items[2].kind, SelectItemKind::kSum);
  EXPECT_EQ(items[2].OutputName(), "sum_b");
  EXPECT_FALSE(ParseQuery("SELECT MIN(*) FROM t").ok());
  EXPECT_FALSE(ParseQuery("SELECT SUM() FROM t").ok());
}

TEST(StatementParseTest, NegativeLimitRejected) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM t LIMIT -1").ok());
}

// ----------------------------------------------------- end-to-end on server

class SqlEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<SqlServer>(dir_.path());
    ASSERT_TRUE(Exec("CREATE TABLE t (a CAT(5), b CAT(3), class CAT(2) "
                     "CLASS)")
                    .ok());
    ASSERT_TRUE(Exec("INSERT INTO t VALUES (0, 0, 0), (1, 1, 1), "
                     "(2, 2, 0), (3, 0, 1), (4, 1, 0), (1, 2, 1)")
                    .ok());
  }

  StatusOr<ResultSet> Exec(const std::string& sql) {
    return server_->Execute(sql);
  }

  TempDir dir_;
  std::unique_ptr<SqlServer> server_;
};

TEST_F(SqlEndToEndTest, CreateInsertSelectPipeline) {
  auto result = Exec("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CellInt(result->rows[0][0]), 6);
  auto schema = server_->GetSchema("t");
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ((*schema)->class_column(), 2);
}

TEST_F(SqlEndToEndTest, InsertAppendsAcrossStatements) {
  ASSERT_TRUE(Exec("INSERT INTO t VALUES (0, 1, 1)").ok());
  auto result = Exec("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CellInt(result->rows[0][0]), 7);
  EXPECT_EQ(*server_->TableRowCount("t"), 7u);
}

TEST_F(SqlEndToEndTest, InsertOutOfDomainRejected) {
  EXPECT_FALSE(Exec("INSERT INTO t VALUES (9, 0, 0)").ok());
  EXPECT_FALSE(Exec("INSERT INTO t VALUES (1, 0)").ok());  // wrong width
}

TEST_F(SqlEndToEndTest, ScalarAggregates) {
  auto result = Exec("SELECT MIN(a), MAX(a), SUM(a), COUNT(*) FROM t");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(CellInt(result->rows[0][0]), 0);
  EXPECT_EQ(CellInt(result->rows[0][1]), 4);
  EXPECT_EQ(CellInt(result->rows[0][2]), 11);
  EXPECT_EQ(CellInt(result->rows[0][3]), 6);
}

TEST_F(SqlEndToEndTest, GroupedAggregates) {
  auto result = Exec(
      "SELECT class, MIN(a), MAX(a), SUM(b), COUNT(*) FROM t GROUP BY "
      "class");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 2u);
  // class 0 rows: (0,0) (2,2) (4,1) -> min 0, max 4, sum_b 3, count 3.
  EXPECT_EQ(CellInt(result->rows[0][1]), 0);
  EXPECT_EQ(CellInt(result->rows[0][2]), 4);
  EXPECT_EQ(CellInt(result->rows[0][3]), 3);
  EXPECT_EQ(CellInt(result->rows[0][4]), 3);
  // class 1 rows: (1,1) (3,0) (1,2) -> min 1, max 3, sum_b 3, count 3.
  EXPECT_EQ(CellInt(result->rows[1][1]), 1);
  EXPECT_EQ(CellInt(result->rows[1][2]), 3);
}

TEST_F(SqlEndToEndTest, OrderByDescendingAndLimit) {
  auto result = Exec("SELECT a, b FROM t ORDER BY a DESC, b LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(CellInt(result->rows[0][0]), 4);
  EXPECT_EQ(CellInt(result->rows[1][0]), 3);
  EXPECT_EQ(CellInt(result->rows[2][0]), 2);
}

TEST_F(SqlEndToEndTest, OrderByAlias) {
  auto result = Exec(
      "SELECT a AS attr, COUNT(*) AS n FROM t GROUP BY a ORDER BY n DESC, "
      "attr LIMIT 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(CellInt(result->rows[0][0]), 1);  // a=1 occurs twice
  EXPECT_EQ(CellInt(result->rows[0][1]), 2);
}

TEST_F(SqlEndToEndTest, OrderByUnknownColumnFails) {
  EXPECT_FALSE(Exec("SELECT a FROM t ORDER BY nope").ok());
}

TEST_F(SqlEndToEndTest, LimitZero) {
  auto result = Exec("SELECT * FROM t LIMIT 0");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(SqlEndToEndTest, DropTableViaSql) {
  ASSERT_TRUE(Exec("DROP TABLE t").ok());
  EXPECT_FALSE(server_->HasTable("t"));
  EXPECT_FALSE(Exec("SELECT * FROM t").ok());
}

TEST_F(SqlEndToEndTest, MultipleClassColumnsRejected) {
  EXPECT_FALSE(
      Exec("CREATE TABLE u (a CAT(2) CLASS, b CAT(2) CLASS)").ok());
}

// -------------------------------------------------------- heap append

TEST(HeapFileAppendTest, ContinuesPartialPage) {
  TempDir dir;
  const std::string path = dir.path() + "/append.tbl";
  {
    auto writer = HeapFileWriter::Create(path, 2, nullptr);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) ASSERT_TRUE((*writer)->Append({i, i}).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  {
    auto writer = HeapFileWriter::OpenForAppend(path, 2, nullptr);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ((*writer)->existing_rows(), 10u);
    for (int i = 10; i < 25; ++i) {
      ASSERT_TRUE((*writer)->Append({i, i}).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
    EXPECT_EQ((*writer)->rows_written(), 15u);
  }
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), 25u);
  Row row;
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(*(*reader)->Next(&row));
    EXPECT_EQ(row, (Row{i, i}));
  }
}

TEST(HeapFileAppendTest, AppendAcrossPageBoundary) {
  TempDir dir;
  const std::string path = dir.path() + "/boundary.tbl";
  const size_t slots = SlotsPerPage(2 * sizeof(Value));
  {
    auto writer = HeapFileWriter::Create(path, 2, nullptr);
    for (size_t i = 0; i < slots; ++i) {  // exactly one full page
      ASSERT_TRUE((*writer)->Append({1, 1}).ok());
    }
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  {
    auto writer = HeapFileWriter::OpenForAppend(path, 2, nullptr);
    ASSERT_TRUE(writer.ok());
    EXPECT_EQ((*writer)->existing_rows(), slots);
    ASSERT_TRUE((*writer)->Append({2, 2}).ok());
    ASSERT_TRUE((*writer)->Finish().ok());
  }
  auto reader = HeapFileReader::Open(path, 2, nullptr);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ((*reader)->num_rows(), slots + 1);
  Row row;
  ASSERT_TRUE((*reader)->ReadAt(slots, &row).ok());
  EXPECT_EQ(row, (Row{2, 2}));
  ASSERT_TRUE((*reader)->ReadAt(0, &row).ok());
  EXPECT_EQ(row, (Row{1, 1}));
}

TEST(HeapFileAppendTest, MissingFileFails) {
  TempDir dir;
  EXPECT_FALSE(
      HeapFileWriter::OpenForAppend(dir.path() + "/nope.tbl", 2, nullptr)
          .ok());
}

}  // namespace
}  // namespace sqlclass
