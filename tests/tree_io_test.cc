#include "mining/tree_io.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "mining/inmemory_provider.h"
#include "mining/prune.h"
#include "mining/tree_client.h"
#include "mining/tree_export.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;
using testing_util::TempDir;

DecisionTree Grow(const Schema& schema, const std::vector<Row>& rows,
                  TreeClientConfig config = TreeClientConfig()) {
  InMemoryCcProvider provider(schema, &rows);
  DecisionTreeClient client(schema, config);
  auto tree = client.Grow(&provider, rows.size());
  EXPECT_TRUE(tree.ok());
  return std::move(tree).value();
}

TEST(TreeIoTest, RoundTripPreservesSignatureAndPredictions) {
  Schema schema = MakeSchema({4, 4, 4}, 3);
  std::vector<Row> rows = RandomRows(schema, 600, 15);
  DecisionTree tree = Grow(schema, rows);
  auto text = SerializeTree(tree);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto loaded = DeserializeTree(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Signature(), tree.Signature());
  EXPECT_EQ(loaded->CountLeaves(), tree.CountLeaves());
  EXPECT_EQ(loaded->MaxDepth(), tree.MaxDepth());
  for (size_t i = 0; i < rows.size(); i += 11) {
    EXPECT_EQ(*loaded->Classify(rows[i]), *tree.Classify(rows[i]));
  }
}

TEST(TreeIoTest, RoundTripPreservesSchemaLabels) {
  std::vector<AttributeDef> attrs(2);
  attrs[0].name = "weather";
  attrs[0].cardinality = 2;
  attrs[0].labels = {"sunny", "rain with wind"};  // label with spaces
  attrs[1].name = "play";
  attrs[1].cardinality = 2;
  attrs[1].labels = {"no", "yes"};
  Schema schema(std::move(attrs), 1);
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) rows.push_back({i % 2, i % 2});
  DecisionTree tree = Grow(schema, rows);
  auto text = SerializeTree(tree);
  ASSERT_TRUE(text.ok());
  auto loaded = DeserializeTree(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->schema().attribute(0).labels[1], "rain with wind");
  // Exports keep working on the loaded model.
  auto rules = TreeToRules(*loaded);
  ASSERT_TRUE(rules.ok());
  EXPECT_NE(rules->find("play = yes"), std::string::npos);
}

TEST(TreeIoTest, MultiwayTreeRoundTrips) {
  Schema schema = MakeSchema({3, 4}, 3);
  std::vector<Row> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back({i % 3, static_cast<Value>((i / 3) % 4), i % 3});
  }
  TreeClientConfig config;
  config.multiway_splits = true;
  DecisionTree tree = Grow(schema, rows, config);
  auto text = SerializeTree(tree);
  ASSERT_TRUE(text.ok());
  auto loaded = DeserializeTree(*text);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Signature(), tree.Signature());
  EXPECT_EQ(*loaded->Classify({1, 0, 0}), *tree.Classify({1, 0, 0}));
}

TEST(TreeIoTest, PrunedTreeRoundTrips) {
  Schema schema = MakeSchema({2, 4, 4}, 2);
  Random rng(8);
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    const Value a = static_cast<Value>(rng.Uniform(2));
    rows.push_back({a, static_cast<Value>(rng.Uniform(4)),
                    static_cast<Value>(rng.Uniform(4)),
                    rng.Bernoulli(0.85) ? a : 1 - a});
  }
  DecisionTree tree = Grow(schema, rows);
  ASSERT_TRUE(PessimisticPrune(&tree).ok());
  auto text = SerializeTree(tree);
  ASSERT_TRUE(text.ok());
  auto loaded = DeserializeTree(*text);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Signature(), tree.Signature());
  EXPECT_EQ(loaded->CountReachableNodes(), tree.CountReachableNodes());
}

TEST(TreeIoTest, FileRoundTrip) {
  TempDir dir;
  Schema schema = MakeSchema({3, 3}, 2);
  std::vector<Row> rows = RandomRows(schema, 200, 4);
  DecisionTree tree = Grow(schema, rows);
  const std::string path = dir.path() + "/model.tree";
  ASSERT_TRUE(SaveTree(tree, path).ok());
  auto loaded = LoadTree(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->Signature(), tree.Signature());
  EXPECT_FALSE(LoadTree(dir.path() + "/nope.tree").ok());
}

TEST(TreeIoTest, RejectsGarbageAndTampering) {
  EXPECT_FALSE(DeserializeTree("").ok());
  EXPECT_FALSE(DeserializeTree("not a tree at all").ok());
  EXPECT_FALSE(DeserializeTree("sqlclass-tree 99\n").ok());

  Schema schema = MakeSchema({3}, 2);
  std::vector<Row> rows = RandomRows(schema, 100, 6);
  DecisionTree tree = Grow(schema, rows);
  auto text = SerializeTree(tree);
  ASSERT_TRUE(text.ok());
  // Truncation fails cleanly.
  EXPECT_FALSE(DeserializeTree(text->substr(0, text->size() / 2)).ok());
  // Broken child link fails validation.
  std::string tampered = *text;
  const size_t pos = tampered.find("node 1 0");
  if (pos != std::string::npos) {
    tampered.replace(pos, 8, "node 1 9");  // parent out of range
    EXPECT_FALSE(DeserializeTree(tampered).ok());
  }
}

// A one-leaf tree over two binary columns, with the leaf's line supplied.
std::string OneLeafTree(const std::string& leaf_line) {
  return "sqlclass-tree 1\nschema 2 1\ncolumn a 2\ncolumn c 2\nnodes 1\n" +
         leaf_line + "\nend\n";
}

TEST(TreeIoTest, ParsesHandWrittenLeaf) {
  auto tree = DeserializeTree(
      OneLeafTree("node 0 -1 2 1 0 10 0 -1 0 0 none - 0 0 2 4 6"));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->num_nodes(), 1);
}

// Hostile list lengths are bounded by the input left before anything is
// sized from them: each returns a parse error instead of throwing.
TEST(TreeIoTest, RejectsChildCountBeyondInput) {
  auto tree = DeserializeTree(
      OneLeafTree("node 0 -1 2 1 0 10 0 -1 0 0 none - 0 4294967295"));
  EXPECT_EQ(tree.status().code(), StatusCode::kParseError);
}

TEST(TreeIoTest, RejectsNegativeClassCountLength) {
  auto tree = DeserializeTree(
      OneLeafTree("node 0 -1 2 1 0 10 0 -1 0 0 none - 0 0 -2147483648"));
  EXPECT_EQ(tree.status().code(), StatusCode::kParseError);
}

TEST(TreeIoTest, RejectsColumnCountBeyondInput) {
  auto tree = DeserializeTree("sqlclass-tree 1\nschema 2147483647 1\n");
  EXPECT_EQ(tree.status().code(), StatusCode::kParseError);
}

TEST(TreeIoTest, SerializeRejectsIncompleteTree) {
  Schema schema = MakeSchema({3}, 2);
  DecisionTree tree(schema);
  EXPECT_FALSE(SerializeTree(tree).ok());
  tree.CreateRoot(10);
  EXPECT_FALSE(SerializeTree(tree).ok());  // active root
}

TEST(TreeIoTest, FromNodesValidatesStructure) {
  Schema schema = MakeSchema({3}, 2);
  std::deque<TreeNode> nodes;
  TreeNode root;
  root.id = 0;
  root.parent = -1;
  root.state = NodeState::kLeaf;
  nodes.push_back(std::move(root));
  auto good = DecisionTree::FromNodes(schema, std::move(nodes));
  EXPECT_TRUE(good.ok());

  std::deque<TreeNode> bad_ids;
  TreeNode wrong;
  wrong.id = 5;
  wrong.parent = -1;
  bad_ids.push_back(std::move(wrong));
  EXPECT_FALSE(DecisionTree::FromNodes(schema, std::move(bad_ids)).ok());

  EXPECT_FALSE(DecisionTree::FromNodes(schema, {}).ok());
}

}  // namespace
}  // namespace sqlclass
