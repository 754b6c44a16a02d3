#ifndef SQLCLASS_MINING_TREE_CLIENT_H_
#define SQLCLASS_MINING_TREE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <span>

#include "catalog/schema.h"
#include "common/status.h"
#include "mining/cc_provider.h"
#include "mining/split.h"
#include "mining/tree.h"

namespace sqlclass {

/// Tunables of the decision-tree data-mining client (§3.1). The paper's
/// experiments grow the full tree (no pruning) with the entropy measure;
/// these are the defaults.
struct TreeClientConfig {
  SplitCriterion criterion = SplitCriterion::kEntropy;

  /// false (default): binary A = v / A <> v splits, as grown in the paper's
  /// experiments. true: complete splits — one branch per attribute value
  /// ([F94], the tree generator's "Complete splits" setting).
  bool multiway_splits = false;

  /// 0 = unlimited. Nodes at this depth become leaves without counting.
  int max_depth = 0;

  /// Nodes with fewer rows become leaves without counting (class known from
  /// the parent's CC table). 2 is the natural floor: one row cannot split.
  uint64_t min_rows = 2;

  /// A split must improve impurity by strictly more than this to be taken.
  /// The default (-1) imposes no constraint, matching the paper's clients,
  /// which grow the full tree and stop only on purity or unsplittability —
  /// necessary for XOR-like concepts where the first level has zero gain.
  double min_gain = -1.0;
};

/// The data-mining client of §3: owns the tree and the scoring function,
/// never touches base data. It queues one CC request per active node,
/// consumes whatever batch the provider fulfills (in any order — §3.1), and
/// grows the tree one level at each fulfilled node.
///
/// Determinism: split selection breaks ties by (attr, value), and leaf /
/// split decisions depend only on CC contents, so the produced *classifier*
/// is identical for every provider and every fulfillment order (node ids
/// may differ; compare trees via DecisionTree::Signature()).
class DecisionTreeClient {
 public:
  DecisionTreeClient(const Schema& schema, TreeClientConfig config);

  /// Grows a complete tree over a table of `table_rows` rows served by
  /// `provider`.
  [[nodiscard]] StatusOr<DecisionTree> Grow(CcProvider* provider, uint64_t table_rows);

  /// CC requests issued during the last Grow (== nodes actually counted).
  uint64_t requests_issued() const { return requests_issued_; }

  /// Provider fulfillment rounds during the last Grow.
  uint64_t rounds() const { return rounds_; }

 private:
  /// Consumes one fulfilled CC table: settles the node as leaf or split,
  /// creates children, and queues child requests. `approximate` marks a
  /// sample-served (scaled) CC: the node's data size is reconciled rather
  /// than asserted, and child sizes are tracked as estimates. An exact
  /// table becomes its children's shared CcRequest::parent_cc.
  [[nodiscard]] Status ProcessNode(DecisionTree* tree, int node_id,
                                   std::shared_ptr<const CcTable> table,
                                   bool approximate, CcProvider* provider);

  /// Complete-split variant of the partitioning step.
  [[nodiscard]] Status PartitionMultiway(
      DecisionTree* tree, int node_id, const CcTable& cc,
      const std::shared_ptr<const CcTable>& parent_cc, CcProvider* provider);

  /// Creates one child; immediately settles it as a leaf when termination
  /// criteria are already decidable from the parent's CC table (pure /
  /// depth / min-rows), else queues its CC request. `parent_cc` is the
  /// parent's exact table, or null when it was approximate: the child's
  /// data size is then an estimate.
  [[nodiscard]] Status CreateAndQueueChild(
      DecisionTree* tree, int parent_id, std::unique_ptr<Expr> edge,
      std::vector<int> active_attrs, std::span<const int64_t> class_counts,
      const std::shared_ptr<const CcTable>& parent_cc, CcProvider* provider);

  Schema schema_;
  TreeClientConfig config_;
  uint64_t requests_issued_ = 0;
  uint64_t rounds_ = 0;
  /// Nodes whose data_size came from a sample-served parent CC and has not
  /// yet been reconciled against an exact count.
  std::set<int> estimated_nodes_;
};

}  // namespace sqlclass

#endif  // SQLCLASS_MINING_TREE_CLIENT_H_
