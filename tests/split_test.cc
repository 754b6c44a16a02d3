#include "mining/split.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace sqlclass {
namespace {

using Counts = std::vector<int64_t>;

TEST(ImpurityTest, PureIsZero) {
  EXPECT_DOUBLE_EQ(Impurity(Counts{10, 0}, 10, SplitCriterion::kEntropy), 0.0);
  EXPECT_DOUBLE_EQ(Impurity(Counts{10, 0}, 10, SplitCriterion::kGini), 0.0);
}

TEST(ImpurityTest, UniformBinaryEntropyIsOneBit) {
  EXPECT_NEAR(Impurity(Counts{5, 5}, 10, SplitCriterion::kEntropy), 1.0, 1e-12);
}

TEST(ImpurityTest, UniformGini) {
  EXPECT_NEAR(Impurity(Counts{5, 5}, 10, SplitCriterion::kGini), 0.5, 1e-12);
  EXPECT_NEAR(Impurity(Counts{4, 4, 4, 4}, 16, SplitCriterion::kGini), 0.75, 1e-12);
}

TEST(ImpurityTest, UniformKaryEntropyIsLogK) {
  EXPECT_NEAR(Impurity(Counts{3, 3, 3, 3}, 12, SplitCriterion::kEntropy), 2.0,
              1e-12);
}

TEST(ImpurityTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(Impurity(Counts{0, 0}, 0, SplitCriterion::kEntropy), 0.0);
}

TEST(ImpurityTest, SkewedLessThanUniform) {
  EXPECT_LT(Impurity(Counts{9, 1}, 10, SplitCriterion::kEntropy),
            Impurity(Counts{5, 5}, 10, SplitCriterion::kEntropy));
  EXPECT_LT(Impurity(Counts{9, 1}, 10, SplitCriterion::kGini),
            Impurity(Counts{5, 5}, 10, SplitCriterion::kGini));
}

TEST(IsPureTest, DetectsPurity) {
  CcTable pure(3);
  pure.AddClassTotal(1, 5);
  EXPECT_TRUE(IsPure(pure));
  CcTable mixed(3);
  mixed.AddClassTotal(1, 5);
  mixed.AddClassTotal(2, 1);
  EXPECT_FALSE(IsPure(mixed));
  CcTable empty(3);
  EXPECT_TRUE(IsPure(empty));
}

/// CC table where A1 (column 0) perfectly separates the two classes and A2
/// (column 1) is pure noise.
CcTable PerfectSplitTable() {
  CcTable cc(2);
  // A1 = 0 -> class 0 (10 rows); A1 = 1 -> class 1 (10 rows).
  for (int i = 0; i < 10; ++i) {
    cc.AddRow({0, i % 3, 0}, {0, 1}, 2);
    cc.AddRow({1, i % 3, 1}, {0, 1}, 2);
  }
  return cc;
}

TEST(ChooseBestBinarySplitTest, FindsThePerfectSplit) {
  CcTable cc = PerfectSplitTable();
  auto split = ChooseBestBinarySplit(cc, {0, 1}, SplitCriterion::kEntropy);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->attr, 0);
  EXPECT_NEAR(split->gain, 1.0, 1e-9);  // full bit of information
  EXPECT_EQ(split->left_rows + split->right_rows, 20);
}

TEST(ChooseBestBinarySplitTest, GiniAlsoFindsIt) {
  CcTable cc = PerfectSplitTable();
  auto split = ChooseBestBinarySplit(cc, {0, 1}, SplitCriterion::kGini);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->attr, 0);
  EXPECT_NEAR(split->gain, 0.5, 1e-9);
}

TEST(ChooseBestBinarySplitTest, GainRatioFindsIt) {
  CcTable cc = PerfectSplitTable();
  auto split = ChooseBestBinarySplit(cc, {0, 1}, SplitCriterion::kGainRatio);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->attr, 0);
}

TEST(ChooseBestBinarySplitTest, NoSplitWhenAllAttributesConstant) {
  CcTable cc(2);
  for (int i = 0; i < 4; ++i) {
    cc.AddRow({1, 2, i % 2}, {0, 1}, 2);  // A1 always 1, A2 always 2
  }
  EXPECT_FALSE(
      ChooseBestBinarySplit(cc, {0, 1}, SplitCriterion::kEntropy).has_value());
}

TEST(ChooseBestBinarySplitTest, NoSplitOnSingleRow) {
  CcTable cc(2);
  cc.AddRow({0, 0, 0}, {0, 1}, 2);
  EXPECT_FALSE(
      ChooseBestBinarySplit(cc, {0, 1}, SplitCriterion::kEntropy).has_value());
}

TEST(ChooseBestBinarySplitTest, RespectsAttributeList) {
  CcTable cc = PerfectSplitTable();
  // Excluding the informative attribute forces the noise split (or none).
  auto split = ChooseBestBinarySplit(cc, {1}, SplitCriterion::kEntropy);
  if (split.has_value()) {
    EXPECT_EQ(split->attr, 1);
    EXPECT_LT(split->gain, 0.2);
  }
}

TEST(ChooseBestBinarySplitTest, SplitSidesAreNonEmpty) {
  CcTable cc(2);
  cc.AddRow({0, 0, 0}, {0}, 1);
  cc.AddRow({0, 0, 1}, {0}, 1);
  cc.AddRow({1, 0, 1}, {0}, 1);
  auto split = ChooseBestBinarySplit(cc, {0}, SplitCriterion::kEntropy);
  ASSERT_TRUE(split.has_value());
  EXPECT_GT(split->left_rows, 0);
  EXPECT_GT(split->right_rows, 0);
}

TEST(ChooseBestBinarySplitTest, DeterministicTieBreak) {
  // Two attributes with identical, symmetric splits: the lower-indexed
  // attribute and lower value must win, regardless of evaluation order.
  CcTable cc(2);
  for (int i = 0; i < 5; ++i) {
    cc.AddRow({0, 0, 0}, {0, 1}, 2);
    cc.AddRow({1, 1, 1}, {0, 1}, 2);
  }
  auto split = ChooseBestBinarySplit(cc, {0, 1}, SplitCriterion::kEntropy);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->attr, 0);
  EXPECT_EQ(split->value, 0);
}

TEST(ChooseBestBinarySplitTest, GainNeverNegativeForChosenSplit) {
  // On arbitrary random tables the best split's gain is >= 0 (entropy is
  // concave; splitting cannot increase weighted impurity).
  CcTable cc(3);
  Random rng(5);
  for (int i = 0; i < 500; ++i) {
    Row row = {static_cast<Value>(rng.Uniform(4)),
               static_cast<Value>(rng.Uniform(3)),
               static_cast<Value>(rng.Uniform(3))};
    cc.AddRow(row, {0, 1}, 2);
  }
  for (auto criterion : {SplitCriterion::kEntropy, SplitCriterion::kGini,
                         SplitCriterion::kGainRatio}) {
    auto split = ChooseBestBinarySplit(cc, {0, 1}, criterion);
    ASSERT_TRUE(split.has_value());
    EXPECT_GE(split->gain, -1e-12);
  }
}

TEST(ChooseBestBinarySplitTest, WeightedImpuritySumsCorrectly) {
  // Hand-checked example: 8 rows, split A1=0 (4 rows: 3/1) vs other
  // (4 rows: 1/3).
  CcTable cc(2);
  cc.Add(0, 0, 0, 3);
  cc.Add(0, 0, 1, 1);
  cc.Add(0, 1, 0, 1);
  cc.Add(0, 1, 1, 3);
  cc.AddClassTotal(0, 4);
  cc.AddClassTotal(1, 4);
  auto split = ChooseBestBinarySplit(cc, {0}, SplitCriterion::kEntropy);
  ASSERT_TRUE(split.has_value());
  const double h_side = Impurity(Counts{3, 1}, 4, SplitCriterion::kEntropy);
  EXPECT_NEAR(split->gain, 1.0 - h_side, 1e-9);
}

}  // namespace
}  // namespace sqlclass
