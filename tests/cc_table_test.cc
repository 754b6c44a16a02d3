#include "mining/cc_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "mining/cc_sql.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::BruteForceCc;
using testing_util::MakeSchema;
using testing_util::RandomRows;

std::vector<int64_t> Vec(std::span<const int64_t> counts) {
  return {counts.begin(), counts.end()};
}

TEST(CcTableTest, EmptyTable) {
  CcTable cc(3);
  EXPECT_EQ(cc.TotalRows(), 0);
  EXPECT_EQ(cc.NumEntries(), 0u);
  EXPECT_EQ(cc.ClassTotals(), (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(Vec(cc.GetCounts(0, 0)), (std::vector<int64_t>{0, 0, 0}));
  EXPECT_EQ(cc.DistinctValues(0), 0);
}

TEST(CcTableTest, AddRowUpdatesAllAttributes) {
  CcTable cc(2);
  // Row (A1=1, A2=0, class=1), counting columns 0 and 1, class col 2.
  cc.AddRow({1, 0, 1}, {0, 1}, 2);
  EXPECT_EQ(cc.TotalRows(), 1);
  EXPECT_EQ(Vec(cc.GetCounts(0, 1)), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(Vec(cc.GetCounts(1, 0)), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(Vec(cc.GetCounts(0, 0)), (std::vector<int64_t>{0, 0}));
  EXPECT_EQ(cc.NumEntries(), 2u);
}

TEST(CcTableTest, AddAccumulates) {
  CcTable cc(2);
  cc.Add(0, 3, 1, 5);
  cc.Add(0, 3, 1, 2);
  cc.Add(0, 3, 0, 1);
  EXPECT_EQ(Vec(cc.GetCounts(0, 3)), (std::vector<int64_t>{1, 7}));
}

TEST(CcTableTest, DistinctValuesPerAttribute) {
  CcTable cc(2);
  cc.Add(0, 1, 0);
  cc.Add(0, 2, 0);
  cc.Add(0, 2, 1);
  cc.Add(5, 0, 0);
  EXPECT_EQ(cc.DistinctValues(0), 2);
  EXPECT_EQ(cc.DistinctValues(5), 1);
  EXPECT_EQ(cc.DistinctValues(3), 0);
}

TEST(CcTableTest, AttributeStatesInValueOrder) {
  CcTable cc(2);
  cc.Add(1, 5, 0);
  cc.Add(1, 2, 1);
  cc.Add(1, 9, 0);
  cc.Add(2, 0, 0);  // different attribute, must not leak in
  auto states = cc.AttributeStates(1);
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0].first, 2);
  EXPECT_EQ(states[1].first, 5);
  EXPECT_EQ(states[2].first, 9);
  EXPECT_EQ(states[1].second[0], 1);
}

TEST(CcTableTest, ClassTotalsSeparateFromCells) {
  CcTable cc(3);
  cc.AddClassTotal(2, 10);
  cc.AddClassTotal(0, 4);
  EXPECT_EQ(cc.TotalRows(), 14);
  EXPECT_EQ(cc.ClassTotals(), (std::vector<int64_t>{4, 0, 10}));
  EXPECT_EQ(cc.NumEntries(), 0u);
}

TEST(CcTableTest, ApproxBytesGrowsWithEntries) {
  // Logical bytes: the same entry formula whatever the physical layout.
  Random rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const int k = 2 + static_cast<int>(rng.Uniform(5));
    std::vector<Row> rows = RandomRows(MakeSchema({2, 9, 40}, k),
                                       rng.Uniform(300), /*seed=*/100 + trial);
    CcTable cc(k);
    for (const Row& row : rows) cc.AddRow(row, {0, 1, 2}, 3);
    EXPECT_EQ(cc.ApproxBytes(), cc.NumEntries() * CcTable::BytesPerEntry(k) +
                                    static_cast<size_t>(k) * 8);
    EXPECT_EQ(cc.NumEntries(), static_cast<size_t>(cc.DistinctValues(0) +
                                                   cc.DistinctValues(1) +
                                                   cc.DistinctValues(2)));
  }
}

TEST(CcTableTest, EqualityIsStructural) {
  CcTable a(2), b(2);
  a.AddRow({1, 0}, {0}, 1);
  a.AddRow({0, 1}, {0}, 1);
  b.AddRow({0, 1}, {0}, 1);  // insertion order does not matter
  b.AddRow({1, 0}, {0}, 1);
  EXPECT_TRUE(a == b);
  b.Add(0, 50, 1, 0);  // grows b's slabs, adds no cell
  b.Add(7, 3, 0, 0);
  EXPECT_EQ(b.NumEntries(), 2u);
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(b == a);
  b.AddRow({1, 1}, {0}, 1);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(b == a);
}

TEST(CcTableTest, MatchesBruteForceOnRandomData) {
  Schema schema = MakeSchema({4, 6, 3}, 5);
  std::vector<Row> rows = RandomRows(schema, 3000, 11);
  CcTable cc(5);
  const std::vector<int> attrs = {0, 1, 2};
  for (const Row& row : rows) cc.AddRow(row, attrs, 3);
  EXPECT_TRUE(cc == BruteForceCc(rows, nullptr, attrs, 3, 5));
  // Every cell agrees with an independent count keyed by (attr, value).
  std::map<std::pair<int, Value>, std::vector<int64_t>> reference;
  for (const Row& row : rows) {
    for (int attr : attrs) {
      auto [it, inserted] = reference.try_emplace({attr, row[attr]}, 5, 0);
      ++it->second[row[3]];
    }
  }
  EXPECT_EQ(cc.NumEntries(), reference.size());
  for (const auto& [key, counts] : reference) {
    EXPECT_EQ(Vec(cc.GetCounts(key.first, key.second)), counts);
  }

  // AddRows over random selections of random blocks leaves the table
  // AddRow leaves over the same rows. The last block holds values past
  // every slab's extent so far, and one selection is empty.
  const size_t width = static_cast<size_t>(schema.num_columns());
  for (size_t i = 0; i < 40; ++i) {
    Row far(width, static_cast<Value>(7 + i % 5));
    far[3] = static_cast<Value>(i % 5);
    rows.push_back(std::move(far));
  }
  std::vector<Value> values;
  for (const Row& row : rows) values.insert(values.end(), row.begin(), row.end());
  Random rng(19);
  CcTable by_row(5), by_block(5);
  for (size_t begin = 0; begin < rows.size();) {
    const size_t end = begin + 1 + rng.Uniform(300);
    const size_t n = std::min(end, rows.size()) - begin;
    std::vector<uint32_t> selection;
    const double keep = begin == 0 ? 0.0 : rng.Uniform(4) / 3.0;
    for (uint32_t r = 0; r < n; ++r) {
      if (rng.Bernoulli(keep)) selection.push_back(r);
    }
    for (uint32_t r : selection) by_row.AddRow(rows[begin + r], attrs, 3);
    by_block.AddRows(values.data() + begin * width, width, selection, attrs,
                     3);
    EXPECT_TRUE(by_block == by_row) << "block at " << begin;
    EXPECT_EQ(by_block.NumEntries(), by_row.NumEntries());
    EXPECT_EQ(by_block.ApproxBytes(), by_row.ApproxBytes());
    EXPECT_EQ(by_block.TotalRows(), by_row.TotalRows());
    begin += n;
  }
  EXPECT_GT(by_block.DistinctValues(0), 4);  // the far values arrived

  // A 10-class table, built by AddRows and by merging two partial tables
  // over alternate rows, agrees with a brute-force map in every view.
  Schema wide = MakeSchema({5, 9, 2}, 10);
  std::vector<Row> wide_rows = RandomRows(wide, 60, 23);  // sparse class counts
  std::vector<Value> wide_values;
  for (const Row& row : wide_rows) {
    wide_values.insert(wide_values.end(), row.begin(), row.end());
  }
  std::map<std::pair<int, Value>, std::vector<int64_t>> wide_reference;
  for (const Row& row : wide_rows) {
    for (int attr : attrs) {
      auto [it, inserted] =
          wide_reference.try_emplace({attr, row[attr]}, 10, 0);
      ++it->second[row[3]];
    }
  }
  std::vector<uint32_t> even, odd, every;
  for (uint32_t r = 0; r < wide_rows.size(); ++r) {
    (r % 2 == 0 ? even : odd).push_back(r);
    every.push_back(r);
  }
  CcTable whole(10), merged(10), half(10);
  whole.AddRows(wide_values.data(), width, every, attrs, 3);
  merged.AddRows(wide_values.data(), width, even, attrs, 3);
  half.AddRows(wide_values.data(), width, odd, attrs, 3);
  merged.Merge(half);
  for (const CcTable* table : {&whole, &merged}) {
    EXPECT_EQ(table->NumEntries(), wide_reference.size());
    EXPECT_EQ(table->TotalRows(), static_cast<int64_t>(wide_rows.size()));
    for (int attr : attrs) {
      std::vector<std::pair<Value, std::vector<int64_t>>> expected, got;
      for (const auto& [key, counts] : wide_reference) {
        if (key.first == attr) expected.emplace_back(key.second, counts);
      }
      for (const auto& [value, counts] : table->AttributeStates(attr)) {
        got.emplace_back(value, Vec(counts));
      }
      EXPECT_EQ(got, expected) << "attr " << attr;
      EXPECT_EQ(table->DistinctValues(attr), static_cast<int>(expected.size()));
      for (Value v = 0; v < wide.attribute(attr).cardinality + 2; ++v) {
        auto it = wide_reference.find({attr, v});
        EXPECT_EQ(Vec(table->GetCounts(attr, v)),
                  it == wide_reference.end() ? std::vector<int64_t>(10, 0)
                                             : it->second)
            << "attr " << attr << " value " << v;
      }
    }
  }
  EXPECT_TRUE(whole == merged);
}

TEST(CcTableTest, AddDifferenceMatchesBruteForce) {
  for (int num_classes : {2, 10}) {
    SCOPED_TRACE(testing::Message() << num_classes << " classes");
    Schema schema = MakeSchema({4, 6, 3, 5}, num_classes);
    const int class_column = 4;
    std::vector<Row> rows = RandomRows(schema, 2000, 29 + num_classes);
    const std::vector<int> all = {0, 1, 2, 3};
    // Parts by A1's value: rows with A1 = 0 (one short slab), an empty
    // part (no slabs at all), rows with A1 = 1 and A2 < 2 (short slabs on
    // two attributes), and the rest, which is derived.
    std::vector<Row> part_rows[3], rest_rows;
    for (const Row& row : rows) {
      if (row[0] == 0) {
        part_rows[0].push_back(row);
      } else if (row[0] == 1 && row[1] < 2) {
        part_rows[2].push_back(row);
      } else {
        rest_rows.push_back(row);
      }
    }
    const CcTable whole = BruteForceCc(rows, nullptr, all, class_column,
                                       num_classes);
    std::vector<CcTable> parts;
    for (const std::vector<Row>& part : part_rows) {
      parts.push_back(
          BruteForceCc(part, nullptr, all, class_column, num_classes));
    }
    std::vector<const CcTable*> part_ptrs;
    for (const CcTable& part : parts) part_ptrs.push_back(&part);
    EXPECT_EQ(parts[0].DistinctValues(0), 1);
    EXPECT_EQ(parts[1].AttributeBound(), 0);

    // The rest counts its class totals and A4 itself; A1..A3 come from
    // the difference.
    CcTable derived = BruteForceCc(rest_rows, nullptr, {3}, class_column,
                                   num_classes);
    ASSERT_TRUE(derived.AddDifference(whole, part_ptrs, {0, 1, 2}).ok());
    const CcTable counted = BruteForceCc(rest_rows, nullptr, all,
                                         class_column, num_classes);
    EXPECT_TRUE(derived == counted);
    EXPECT_EQ(derived.NumEntries(), counted.NumEntries());
    EXPECT_EQ(derived.ApproxBytes(), counted.ApproxBytes());
    std::map<std::pair<int, Value>, std::vector<int64_t>> reference;
    for (const Row& row : rest_rows) {
      for (int attr : all) {
        auto [it, inserted] =
            reference.try_emplace({attr, row[attr]}, num_classes, 0);
        ++it->second[row[class_column]];
      }
    }
    EXPECT_EQ(derived.NumEntries(), reference.size());
    for (int attr : all) {
      for (Value v = 0; v < schema.attribute(attr).cardinality; ++v) {
        auto it = reference.find({attr, v});
        EXPECT_EQ(Vec(derived.GetCounts(attr, v)),
                  it == reference.end()
                      ? std::vector<int64_t>(num_classes, 0)
                      : it->second)
            << "attr " << attr << " value " << v;
      }
    }

    // Parts that are not subsets of the whole fail and change nothing: one
    // row too few in the whole, and a part cell past the whole's slab.
    std::vector<Row> short_rows(rows.begin() + 1, rows.end());
    const CcTable short_whole = BruteForceCc(short_rows, nullptr, all,
                                             class_column, num_classes);
    const CcTable all_rows_part = whole;
    const CcTable* too_many[] = {&all_rows_part};
    CcTable unchanged = derived;
    EXPECT_EQ(unchanged.AddDifference(short_whole, too_many, {0, 1, 2})
                  .code(),
              StatusCode::kInternal);
    EXPECT_TRUE(unchanged == derived);
    CcTable far_part(num_classes);
    far_part.Add(1, 40, 0);
    const CcTable* far[] = {&far_part};
    EXPECT_EQ(unchanged.AddDifference(whole, far, {1}).code(),
              StatusCode::kInternal);
    EXPECT_TRUE(unchanged == derived);
  }
}

TEST(CcTableTest, MergeAcrossSlabExtents) {
  CcTable a(2), b(2), c(2);
  a.Add(0, 9, 1, 4);  // attr 0's slab reaches value 9
  b.Add(0, 2, 0, 3);
  b.Add(3, 1, 1, 2);  // an attribute `a` never saw
  a.Merge(b);
  EXPECT_EQ(Vec(a.GetCounts(0, 9)), (std::vector<int64_t>{0, 4}));
  EXPECT_EQ(Vec(a.GetCounts(0, 2)), (std::vector<int64_t>{3, 0}));
  EXPECT_EQ(Vec(a.GetCounts(3, 1)), (std::vector<int64_t>{0, 2}));
  EXPECT_EQ(a.NumEntries(), 3u);
  c.Merge(b);  // the shorter slab first, then growing past it
  c.Add(0, 9, 1, 4);
  EXPECT_TRUE(c == a);
}

TEST(CcTableTest, GetCountsOfUnseenOrOutOfRangeStateIsZeros) {
  CcTable cc(3);
  cc.Add(1, 4, 2, 6);
  EXPECT_EQ(Vec(cc.GetCounts(1, 4)), (std::vector<int64_t>{0, 0, 6}));
  // Below the largest value, past the slab, far past it, negative, an
  // attribute without cells, past every slab.
  for (auto [attr, value] : std::vector<std::pair<int, Value>>{
           {1, 2}, {1, 5}, {1, 1 << 30}, {1, -1}, {0, 0}, {99, 0}, {-1, 0}}) {
    EXPECT_EQ(Vec(cc.GetCounts(attr, value)), (std::vector<int64_t>{0, 0, 0}))
        << attr << "," << value;
  }
  EXPECT_TRUE(cc.AttributeStates(99).empty());
}

TEST(CcTableTest, ToStringMentionsTotals) {
  CcTable cc(2);
  cc.AddRow({0, 1}, {0}, 1);
  EXPECT_NE(cc.ToString().find("rows=1"), std::string::npos);
}

// ------------------------------------------------------------------ cc_sql

TEST(CcSqlTest, BuildCcQueryShape) {
  Schema schema = MakeSchema({2, 3}, 4);
  auto pred = Expr::ColEq("A1", 1);
  std::string sql = BuildCcQuerySql("data", schema, {0, 1}, pred.get());
  EXPECT_EQ(sql,
            "SELECT 'A1' AS attr_name, A1 AS value, class, COUNT(*) "
            "FROM data WHERE A1 = 1 GROUP BY class, A1 UNION ALL "
            "SELECT 'A2' AS attr_name, A2 AS value, class, COUNT(*) "
            "FROM data WHERE A1 = 1 GROUP BY class, A2");
}

TEST(CcSqlTest, BuildCcQueryWithoutPredicateOmitsWhere) {
  Schema schema = MakeSchema({2}, 2);
  std::string sql = BuildCcQuerySql("data", schema, {0}, nullptr);
  EXPECT_EQ(sql.find("WHERE"), std::string::npos);
}

TEST(CcSqlTest, CcFromResultSetReconstructsCounts) {
  Schema schema = MakeSchema({2, 3}, 2);
  ResultSet result;
  result.column_names = {"attr_name", "value", "class", "count"};
  result.rows = {
      {Cell(std::string("A1")), Cell(int64_t{0}), Cell(int64_t{0}),
       Cell(int64_t{3})},
      {Cell(std::string("A1")), Cell(int64_t{1}), Cell(int64_t{1}),
       Cell(int64_t{2})},
      {Cell(std::string("A2")), Cell(int64_t{2}), Cell(int64_t{0}),
       Cell(int64_t{3})},
      {Cell(std::string("A2")), Cell(int64_t{0}), Cell(int64_t{1}),
       Cell(int64_t{2})},
  };
  auto cc = CcFromResultSet(result, schema, 2, "A1");
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();
  EXPECT_EQ(cc->TotalRows(), 5);
  EXPECT_EQ(cc->ClassTotals(), (std::vector<int64_t>{3, 2}));
  EXPECT_EQ(Vec(cc->GetCounts(0, 0)), (std::vector<int64_t>{3, 0}));
  EXPECT_EQ(Vec(cc->GetCounts(1, 2)), (std::vector<int64_t>{3, 0}));
}

TEST(CcSqlTest, CcFromResultSetRejectsBadShape) {
  Schema schema = MakeSchema({2}, 2);
  ResultSet narrow;
  narrow.column_names = {"a", "b"};
  EXPECT_FALSE(CcFromResultSet(narrow, schema, 2, "A1").ok());

  ResultSet bad_attr;
  bad_attr.column_names = {"attr_name", "value", "class", "count"};
  bad_attr.rows = {{Cell(std::string("nope")), Cell(int64_t{0}),
                    Cell(int64_t{0}), Cell(int64_t{1})}};
  EXPECT_FALSE(CcFromResultSet(bad_attr, schema, 2, "A1").ok());

  ResultSet bad_class;
  bad_class.column_names = {"attr_name", "value", "class", "count"};
  bad_class.rows = {{Cell(std::string("A1")), Cell(int64_t{0}),
                     Cell(int64_t{7}), Cell(int64_t{1})}};
  EXPECT_FALSE(CcFromResultSet(bad_class, schema, 2, "A1").ok());

  for (int64_t value : {int64_t{-1}, int64_t{2}, int64_t{1} << 30}) {
    ResultSet bad_value = bad_class;
    bad_value.rows[0][1] = Cell(value);
    bad_value.rows[0][2] = Cell(int64_t{0});
    EXPECT_EQ(CcFromResultSet(bad_value, schema, 2, "A1").status().code(),
              StatusCode::kInvalidArgument)
        << value;
  }
}
}  // namespace
}  // namespace sqlclass
