#include "catalog/schema.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;

TEST(SchemaTest, ValidSchemaPasses) {
  Schema schema = MakeSchema({2, 3, 4}, 5);
  EXPECT_TRUE(schema.Validate().ok());
  EXPECT_EQ(schema.num_columns(), 4);
  EXPECT_EQ(schema.class_column(), 3);
  EXPECT_TRUE(schema.has_class_column());
}

TEST(SchemaTest, EmptySchemaFails) {
  Schema schema;
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, DuplicateNamesFail) {
  std::vector<AttributeDef> attrs(2);
  attrs[0].name = "x";
  attrs[0].cardinality = 2;
  attrs[1].name = "x";
  attrs[1].cardinality = 2;
  Schema schema(std::move(attrs), -1);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, EmptyNameFails) {
  std::vector<AttributeDef> attrs(1);
  attrs[0].name = "";
  attrs[0].cardinality = 2;
  Schema schema(std::move(attrs), -1);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, NonPositiveCardinalityFails) {
  std::vector<AttributeDef> attrs(1);
  attrs[0].name = "x";
  attrs[0].cardinality = 0;
  Schema schema(std::move(attrs), -1);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, LabelCountMismatchFails) {
  std::vector<AttributeDef> attrs(1);
  attrs[0].name = "x";
  attrs[0].cardinality = 3;
  attrs[0].labels = {"a", "b"};
  Schema schema(std::move(attrs), -1);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, ClassColumnOutOfRangeFails) {
  std::vector<AttributeDef> attrs(1);
  attrs[0].name = "x";
  attrs[0].cardinality = 2;
  Schema schema(std::move(attrs), 5);
  EXPECT_FALSE(schema.Validate().ok());
}

TEST(SchemaTest, NoClassColumnIsAllowed) {
  std::vector<AttributeDef> attrs(1);
  attrs[0].name = "x";
  attrs[0].cardinality = 2;
  Schema schema(std::move(attrs), -1);
  EXPECT_TRUE(schema.Validate().ok());
  EXPECT_FALSE(schema.has_class_column());
}

TEST(SchemaTest, PredictorColumnsExcludeClass) {
  Schema schema = MakeSchema({2, 3, 4}, 5);
  EXPECT_EQ(schema.PredictorColumns(), (std::vector<int>{0, 1, 2}));
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema schema = MakeSchema({2, 3}, 4);
  EXPECT_EQ(schema.ColumnIndex("A1"), 0);
  EXPECT_EQ(schema.ColumnIndex("A2"), 1);
  EXPECT_EQ(schema.ColumnIndex("class"), 2);
  EXPECT_EQ(schema.ColumnIndex("nope"), -1);
}

TEST(SchemaTest, RowInDomainChecksWidthAndValues) {
  Schema schema = MakeSchema({2, 3}, 4);
  EXPECT_TRUE(schema.RowInDomain({1, 2, 3}));
  EXPECT_FALSE(schema.RowInDomain({1, 2}));       // too narrow
  EXPECT_FALSE(schema.RowInDomain({2, 2, 3}));    // A1 out of domain
  EXPECT_FALSE(schema.RowInDomain({1, 2, 4}));    // class out of domain
  EXPECT_FALSE(schema.RowInDomain({-1, 2, 3}));   // negative
}

TEST(SchemaTest, RowBytesIsFourPerColumn) {
  Schema schema = MakeSchema({2, 3, 4}, 5);
  EXPECT_EQ(schema.RowBytes(), 16u);
}

TEST(SchemaTest, LabelForFallsBackToNumber) {
  AttributeDef attr;
  attr.name = "x";
  attr.cardinality = 2;
  attr.labels = {"no", "yes"};
  EXPECT_EQ(attr.LabelFor(1), "yes");
  EXPECT_EQ(attr.LabelFor(5), "5");
  AttributeDef bare;
  bare.cardinality = 3;
  EXPECT_EQ(bare.LabelFor(2), "2");
}

TEST(SchemaTest, EqualityIgnoresLabels) {
  Schema a = MakeSchema({2, 3}, 4);
  Schema b = MakeSchema({2, 3}, 4);
  Schema c = MakeSchema({2, 4}, 4);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace sqlclass
