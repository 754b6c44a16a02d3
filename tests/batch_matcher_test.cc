#include "middleware/batch_matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "sql/parser.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;

std::unique_ptr<Expr> Bound(const Schema& schema, const std::string& sql) {
  auto pred = ParsePredicate(sql);
  EXPECT_TRUE(pred.ok()) << sql;
  EXPECT_TRUE((*pred)->Bind(schema).ok());
  return std::move(*pred);
}

std::vector<int> Sorted(std::vector<int> v) {
  std::sort(v.begin(), v.end());
  return v;
}

TEST(BatchMatcherTest, SinglePredicate) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto p = Bound(schema, "A1 = 1");
  BatchMatcher matcher({p.get()});
  EXPECT_TRUE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({1, 0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({2, 0, 0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchMatcherTest, TruePredicateMatchesAll) {
  Schema schema = MakeSchema({3}, 2);
  auto p = Expr::True();
  BatchMatcher matcher({p.get()});
  std::vector<int> out;
  matcher.Match({0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(BatchMatcherTest, SiblingPredicatesAreDisjoint) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto left = Bound(schema, "A1 = 0");
  auto right = Bound(schema, "A1 <> 0");
  BatchMatcher matcher({left.get(), right.get()});
  std::vector<int> out;
  matcher.Match({0, 1, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({2, 1, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{1}));
}

TEST(BatchMatcherTest, SharedPrefixesRouteCorrectly) {
  Schema schema = MakeSchema({3, 3, 3}, 2);
  // A frontier of four nodes under a two-level tree.
  auto p0 = Bound(schema, "A1 = 0 AND A2 = 1");
  auto p1 = Bound(schema, "A1 = 0 AND A2 <> 1");
  auto p2 = Bound(schema, "A1 <> 0 AND A3 = 2");
  auto p3 = Bound(schema, "A1 <> 0 AND A3 <> 2");
  BatchMatcher matcher({p0.get(), p1.get(), p2.get(), p3.get()});
  EXPECT_TRUE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({0, 1, 0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({0, 2, 0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{1}));
  matcher.Match({1, 1, 2, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{2}));
  matcher.Match({1, 1, 1, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{3}));
}

TEST(BatchMatcherTest, OverlappingPredicatesBothMatch) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto p0 = Bound(schema, "A1 = 1");
  auto p1 = Bound(schema, "A2 = 2");
  BatchMatcher matcher({p0.get(), p1.get()});
  std::vector<int> out;
  matcher.Match({1, 2, 0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int>{0, 1}));
}

TEST(BatchMatcherTest, NonConjunctiveFallsBackAndStaysExact) {
  Schema schema = MakeSchema({3, 3}, 2);
  auto p0 = Bound(schema, "A1 = 1 OR A2 = 1");  // not trie-indexable
  auto p1 = Bound(schema, "A1 = 0");
  BatchMatcher matcher({p0.get(), p1.get()});
  EXPECT_FALSE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({0, 1, 0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int>{0, 1}));
  matcher.Match({2, 2, 0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchMatcherTest, NotPredicateFallsBack) {
  Schema schema = MakeSchema({3}, 2);
  auto p = Bound(schema, "NOT A1 = 1");
  BatchMatcher matcher({p.get()});
  EXPECT_FALSE(matcher.fully_indexed());
  std::vector<int> out;
  matcher.Match({0, 0}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
  matcher.Match({1, 0}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(BatchMatcherTest, NullPredicateMatchesEverything) {
  BatchMatcher matcher({nullptr});
  std::vector<int> out;
  matcher.Match({5, 5}, &out);
  EXPECT_EQ(out, (std::vector<int>{0}));
}

TEST(BatchMatcherTest, DuplicatePredicatesBothReported) {
  Schema schema = MakeSchema({3}, 2);
  auto p0 = Bound(schema, "A1 = 1");
  auto p1 = Bound(schema, "A1 = 1");
  BatchMatcher matcher({p0.get(), p1.get()});
  std::vector<int> out;
  matcher.Match({1, 0}, &out);
  EXPECT_EQ(Sorted(out), (std::vector<int>{0, 1}));
}

TEST(BatchMatcherTest, AgreesWithDirectEvaluationOnRandomBatches) {
  Schema schema = MakeSchema({4, 4, 4, 4}, 3);
  Random rng(101);
  // Build 30 random conjunctive predicates of varying depth.
  std::vector<std::unique_ptr<Expr>> preds;
  for (int i = 0; i < 30; ++i) {
    std::vector<std::unique_ptr<Expr>> conj;
    const int depth = 1 + static_cast<int>(rng.Uniform(3));
    for (int d = 0; d < depth; ++d) {
      const int col = static_cast<int>(rng.Uniform(4));
      const Value v = static_cast<Value>(rng.Uniform(4));
      const std::string name = "A" + std::to_string(col + 1);
      conj.push_back(rng.Bernoulli(0.5) ? Expr::ColEq(name, v)
                                        : Expr::ColNe(name, v));
    }
    auto pred = Expr::And(std::move(conj));
    ASSERT_TRUE(pred->Bind(schema).ok());
    preds.push_back(std::move(pred));
  }
  // Fallbacks (OR, NOT), a duplicate of a trie predicate and a true root.
  preds.push_back(Bound(schema, "A1 = 1 OR A2 = 2"));
  preds.push_back(Bound(schema, "NOT A3 = 0"));
  preds.push_back(preds[0]->Clone());
  ASSERT_TRUE(preds.back()->Bind(schema).ok());
  preds.push_back(Expr::True());
  std::vector<const Expr*> raw;
  for (const auto& p : preds) raw.push_back(p.get());
  BatchMatcher matcher(raw);
  EXPECT_FALSE(matcher.fully_indexed());

  std::vector<Row> rows = RandomRows(schema, 500, 77);
  std::vector<int> out;
  for (const Row& row : rows) {
    matcher.Match(row, &out);
    std::vector<int> expected;
    for (size_t i = 0; i < preds.size(); ++i) {
      if (preds[i]->Eval(row)) expected.push_back(static_cast<int>(i));
    }
    EXPECT_EQ(Sorted(out), expected);
  }

  // MatchBlock over the same rows as one block, under empty, full and
  // sparse selections: each predicate gets its selected matching rows in
  // block order, in one call, and no call when it has none.
  const size_t stride = static_cast<size_t>(schema.num_columns());
  std::vector<Value> block;
  for (const Row& row : rows) block.insert(block.end(), row.begin(), row.end());
  std::vector<uint32_t> full(rows.size());
  std::vector<uint32_t> sparse;
  for (uint32_t r = 0; r < rows.size(); ++r) {
    full[r] = r;
    if (rng.Bernoulli(0.1)) sparse.push_back(r);
  }
  BatchMatcher::BlockScratch scratch;
  matcher.PrepareScratch(rows.size(), &scratch);
  for (const std::vector<uint32_t>& selection :
       {std::vector<uint32_t>{}, full, sparse}) {
    SCOPED_TRACE("selection of " + std::to_string(selection.size()));
    std::vector<std::vector<uint32_t>> hits(preds.size());
    std::vector<int> calls(preds.size(), 0);
    matcher.MatchBlock(block.data(), stride, selection, &scratch,
                       [&](int index, std::span<const uint32_t> rows_hit) {
                         ++calls[index];
                         hits[index].assign(rows_hit.begin(), rows_hit.end());
                       });
    for (size_t i = 0; i < preds.size(); ++i) {
      std::vector<uint32_t> expected;
      for (uint32_t r : selection) {
        if (preds[i]->Eval(rows[r])) expected.push_back(r);
      }
      EXPECT_EQ(hits[i], expected) << "predicate " << i;
      EXPECT_EQ(calls[i], expected.empty() ? 0 : 1) << "predicate " << i;
    }
  }
}

}  // namespace
}  // namespace sqlclass
