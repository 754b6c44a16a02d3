#include "mining/tree_client.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "mining/inmemory_provider.h"
#include "test_util.h"

namespace sqlclass {
namespace {

using testing_util::MakeSchema;
using testing_util::RandomRows;

DecisionTree GrowInMemory(const Schema& schema, const std::vector<Row>& rows,
                          TreeClientConfig config = TreeClientConfig()) {
  InMemoryCcProvider provider(schema, &rows);
  DecisionTreeClient client(schema, config);
  auto tree = client.Grow(&provider, rows.size());
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

TEST(TreeClientTest, PureDataYieldsSingleLeaf) {
  Schema schema = MakeSchema({2, 2}, 3);
  std::vector<Row> rows = {{0, 1, 2}, {1, 0, 2}, {1, 1, 2}};
  DecisionTree tree = GrowInMemory(schema, rows);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.node(0).state, NodeState::kLeaf);
  EXPECT_EQ(tree.node(0).leaf_reason, LeafReason::kPure);
  EXPECT_EQ(tree.node(0).majority_class, 2);
}

TEST(TreeClientTest, PerfectlySeparableDataLearnsPerfectTree) {
  Schema schema = MakeSchema({2, 3}, 2);
  // class = A1, A2 is noise.
  std::vector<Row> rows;
  for (int i = 0; i < 60; ++i) {
    rows.push_back({i % 2, i % 3, i % 2});
  }
  DecisionTree tree = GrowInMemory(schema, rows);
  EXPECT_EQ(tree.CountLeaves(), 2);
  EXPECT_EQ(tree.node(0).split_attr, 0);
  auto accuracy = tree.Accuracy(rows);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_DOUBLE_EQ(*accuracy, 1.0);
}

TEST(TreeClientTest, XorNeedsTwoLevels) {
  Schema schema = MakeSchema({2, 2}, 2);
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    const Value a = i % 2;
    const Value b = (i / 2) % 2;
    rows.push_back({a, b, a ^ b});
  }
  DecisionTree tree = GrowInMemory(schema, rows);
  EXPECT_EQ(tree.MaxDepth(), 2);
  auto accuracy = tree.Accuracy(rows);
  EXPECT_DOUBLE_EQ(*accuracy, 1.0);
}

TEST(TreeClientTest, ConstantAttributesMakeNoSplitLeaf) {
  Schema schema = MakeSchema({2, 2}, 2);
  // Identical attribute values, mixed classes: unsplittable.
  std::vector<Row> rows = {{1, 0, 0}, {1, 0, 1}, {1, 0, 0}, {1, 0, 1}};
  DecisionTree tree = GrowInMemory(schema, rows);
  EXPECT_EQ(tree.num_nodes(), 1);
  EXPECT_EQ(tree.node(0).leaf_reason, LeafReason::kNoSplit);
  EXPECT_EQ(tree.node(0).majority_class, 0);  // tie broken to lowest class
}

TEST(TreeClientTest, MaxDepthStopsGrowth) {
  Schema schema = MakeSchema({4, 4, 4}, 4);
  std::vector<Row> rows = RandomRows(schema, 400, 3);
  TreeClientConfig config;
  config.max_depth = 2;
  DecisionTree tree = GrowInMemory(schema, rows, config);
  EXPECT_LE(tree.MaxDepth(), 2);
  bool saw_depth_leaf = false;
  for (int i = 0; i < tree.num_nodes(); ++i) {
    if (tree.node(i).leaf_reason == LeafReason::kDepthLimit) {
      saw_depth_leaf = true;
    }
  }
  EXPECT_TRUE(saw_depth_leaf);
}

TEST(TreeClientTest, MinRowsStopsGrowth) {
  Schema schema = MakeSchema({4, 4, 4}, 4);
  std::vector<Row> rows = RandomRows(schema, 300, 9);
  TreeClientConfig config;
  config.min_rows = 50;
  DecisionTree tree = GrowInMemory(schema, rows, config);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& node = tree.node(i);
    if (node.state == NodeState::kPartitioned) {
      EXPECT_GE(node.data_size, 50u);
    }
  }
}

TEST(TreeClientTest, EveryInternalNodeHasTwoChildrenAndExactPartition) {
  Schema schema = MakeSchema({3, 4, 5}, 3);
  std::vector<Row> rows = RandomRows(schema, 1000, 31);
  DecisionTree tree = GrowInMemory(schema, rows);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& node = tree.node(i);
    if (node.state == NodeState::kPartitioned) {
      ASSERT_EQ(node.children.size(), 2u);
      EXPECT_EQ(tree.node(node.children[0]).data_size +
                    tree.node(node.children[1]).data_size,
                node.data_size);
    }
  }
}

TEST(TreeClientTest, ClassCountsConsistentDownTheTree) {
  Schema schema = MakeSchema({3, 3}, 3);
  std::vector<Row> rows = RandomRows(schema, 500, 8);
  DecisionTree tree = GrowInMemory(schema, rows);
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& node = tree.node(i);
    if (node.state != NodeState::kPartitioned) continue;
    const auto& left = tree.node(node.children[0]).class_counts;
    const auto& right = tree.node(node.children[1]).class_counts;
    ASSERT_EQ(left.size(), node.class_counts.size());
    for (size_t k = 0; k < node.class_counts.size(); ++k) {
      EXPECT_EQ(left[k] + right[k], node.class_counts[k]);
    }
  }
}

TEST(TreeClientTest, RequestsOnlyIssuedForImpureUndecidedNodes) {
  Schema schema = MakeSchema({2, 2}, 2);
  std::vector<Row> rows;
  for (int i = 0; i < 32; ++i) rows.push_back({i % 2, 0, i % 2});
  InMemoryCcProvider provider(schema, &rows);
  DecisionTreeClient client(schema, TreeClientConfig());
  auto tree = client.Grow(&provider, rows.size());
  ASSERT_TRUE(tree.ok());
  // Root splits perfectly; both children are pure from the parent's CC and
  // must NOT generate requests.
  EXPECT_EQ(client.requests_issued(), 1u);
  EXPECT_EQ(provider.scans(), 1u);
}

TEST(TreeClientTest, SchemaWithoutClassColumnRejected) {
  std::vector<AttributeDef> attrs(1);
  attrs[0].name = "x";
  attrs[0].cardinality = 2;
  Schema schema(std::move(attrs), -1);
  std::vector<Row> rows = {{0}};
  InMemoryCcProvider provider(schema, &rows);
  DecisionTreeClient client(schema, TreeClientConfig());
  EXPECT_FALSE(client.Grow(&provider, 1).ok());
}

TEST(TreeClientTest, GrowIsDeterministicAcrossRuns) {
  Schema schema = MakeSchema({4, 4, 4, 4}, 3);
  std::vector<Row> rows = RandomRows(schema, 800, 123);
  DecisionTree a = GrowInMemory(schema, rows);
  DecisionTree b = GrowInMemory(schema, rows);
  EXPECT_EQ(a.Signature(), b.Signature());
}

TEST(TreeClientTest, GainRatioAndGiniAlsoGrowValidTrees) {
  Schema schema = MakeSchema({4, 4}, 3);
  std::vector<Row> rows = RandomRows(schema, 400, 55);
  for (auto criterion : {SplitCriterion::kGini, SplitCriterion::kGainRatio}) {
    TreeClientConfig config;
    config.criterion = criterion;
    DecisionTree tree = GrowInMemory(schema, rows, config);
    EXPECT_GT(tree.CountLeaves(), 0);
    EXPECT_TRUE(tree.ActiveNodes().empty());
    EXPECT_TRUE(tree.Classify(rows[0]).ok());
  }
}

TEST(TreeClientTest, TrainingAccuracyIsHighOnFullTree) {
  // Full unpruned tree on separable-ish data memorizes nearly everything
  // except genuinely conflicting rows.
  // Domain large enough that conflicting duplicate rows are rare; the full
  // tree then memorizes the sample.
  Schema schema = MakeSchema({8, 8, 8, 8, 8}, 4);
  std::vector<Row> rows = RandomRows(schema, 300, 2);
  DecisionTree tree = GrowInMemory(schema, rows);
  auto accuracy = tree.Accuracy(rows);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_GT(*accuracy, 0.95);
}

/// Records what the client hands over: each request's parent table and
/// each delivered table. `approximate_root` marks the root's result as
/// sample-served.
class ParentRecordingProvider : public CcProvider {
 public:
  struct Queued {
    int parent_id;
    std::shared_ptr<const CcTable> parent_cc;
  };

  ParentRecordingProvider(const Schema& schema, const std::vector<Row>* rows,
                          bool approximate_root)
      : inner_(schema, rows), approximate_root_(approximate_root) {}

  Status QueueRequest(CcRequest request) override {
    queued_[request.node_id] = {request.parent_id, request.parent_cc};
    return inner_.QueueRequest(std::move(request));
  }
  StatusOr<std::vector<CcResult>> FulfillSome() override {
    SQLCLASS_ASSIGN_OR_RETURN(std::vector<CcResult> results,
                              inner_.FulfillSome());
    for (CcResult& result : results) {
      delivered_.emplace(result.node_id, result.cc);
      result.approximate = approximate_root_ && result.node_id == 0;
    }
    return results;
  }
  size_t PendingRequests() const override { return inner_.PendingRequests(); }

  const std::map<int, Queued>& queued() const { return queued_; }
  const CcTable& delivered(int node_id) const { return delivered_.at(node_id); }

 private:
  InMemoryCcProvider inner_;
  bool approximate_root_;
  std::map<int, Queued> queued_;
  std::map<int, CcTable> delivered_;
};

TEST(TreeClientTest, ChildrenShareTheirParentsExactTable) {
  Schema schema = MakeSchema({4, 3, 5}, 3);
  std::vector<Row> rows = RandomRows(schema, 600, 8);
  for (bool multiway : {false, true}) {
    for (bool approximate_root : {false, true}) {
      SCOPED_TRACE(testing::Message() << "multiway " << multiway
                                      << ", approximate root "
                                      << approximate_root);
      ParentRecordingProvider provider(schema, &rows, approximate_root);
      TreeClientConfig config;
      config.multiway_splits = multiway;
      DecisionTreeClient client(schema, config);
      ASSERT_TRUE(client.Grow(&provider, rows.size()).ok());
      std::map<int, const CcTable*> by_parent;  // one shared table each
      int children = 0;
      for (const auto& [node_id, queued] : provider.queued()) {
        if (queued.parent_id < 0) {
          EXPECT_EQ(queued.parent_cc, nullptr);
          continue;
        }
        ++children;
        if (approximate_root && queued.parent_id == 0) {
          // A sample-served parent's table is no proof of anything.
          EXPECT_EQ(queued.parent_cc, nullptr) << "node " << node_id;
          continue;
        }
        ASSERT_NE(queued.parent_cc, nullptr) << "node " << node_id;
        EXPECT_TRUE(*queued.parent_cc ==
                    provider.delivered(queued.parent_id));
        auto [it, first] =
            by_parent.emplace(queued.parent_id, queued.parent_cc.get());
        EXPECT_EQ(it->second, queued.parent_cc.get()) << "node " << node_id;
      }
      EXPECT_GT(children, 4);
      EXPECT_FALSE(by_parent.empty());
    }
  }
}

}  // namespace
}  // namespace sqlclass
