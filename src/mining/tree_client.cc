#include "mining/tree_client.h"

#include <algorithm>
#include <cassert>

namespace sqlclass {

namespace {

Value MajorityClass(std::span<const int64_t> counts) {
  Value best = 0;
  int64_t best_count = -1;
  for (size_t k = 0; k < counts.size(); ++k) {
    if (counts[k] > best_count) {
      best_count = counts[k];
      best = static_cast<Value>(k);
    }
  }
  return best;
}

bool IsPureCounts(std::span<const int64_t> counts) {
  int nonzero = 0;
  for (int64_t c : counts) {
    if (c > 0) ++nonzero;
  }
  return nonzero <= 1;
}

int64_t SumCounts(std::span<const int64_t> counts) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  return total;
}

}  // namespace

DecisionTreeClient::DecisionTreeClient(const Schema& schema,
                                       TreeClientConfig config)
    : schema_(schema), config_(config) {}

StatusOr<DecisionTree> DecisionTreeClient::Grow(CcProvider* provider,
                                                uint64_t table_rows) {
  SQLCLASS_RETURN_IF_ERROR(schema_.Validate());
  if (!schema_.has_class_column()) {
    return Status::InvalidArgument("schema has no class column");
  }
  requests_issued_ = 0;
  rounds_ = 0;
  estimated_nodes_.clear();

  DecisionTree tree(schema_);
  tree.CreateRoot(table_rows);

  CcRequest root_request;
  root_request.node_id = 0;
  root_request.parent_id = -1;
  root_request.predicate = Expr::True();
  root_request.active_attrs = tree.node(0).active_attrs;
  root_request.data_size = table_rows;
  root_request.prefer_exact = config_.max_depth == 1;
  SQLCLASS_RETURN_IF_ERROR(provider->QueueRequest(std::move(root_request)));
  ++requests_issued_;

  // Steps 1-5 of the client loop (§3): wait for fulfilled requests, consume
  // them in the provider's order, grow one level per fulfilled node.
  while (provider->PendingRequests() > 0) {
    SQLCLASS_ASSIGN_OR_RETURN(std::vector<CcResult> results,
                              provider->FulfillSome());
    ++rounds_;
    if (results.empty()) {
      return Status::Internal(
          "provider made no progress with pending requests");
    }
    for (CcResult& result : results) {
      // Moved, not copied: the children's requests share it as parent_cc.
      SQLCLASS_RETURN_IF_ERROR(ProcessNode(
          &tree, result.node_id,
          std::make_shared<const CcTable>(std::move(result.cc)),
          result.approximate, provider));
      // Children (if any) are queued by ProcessNode, so the provider may
      // now reclaim whatever it pinned for this node (Fig. 3's "processed
      // nodes" notification).
      provider->ReleaseNode(result.node_id);
    }
  }
  return tree;
}

Status DecisionTreeClient::ProcessNode(
    DecisionTree* tree, int node_id, std::shared_ptr<const CcTable> table,
    bool approximate, CcProvider* provider) {
  const CcTable& cc = *table;
  // Children may lean on an exact table only (CcRequest::parent_cc).
  const std::shared_ptr<const CcTable> parent_cc =
      approximate ? nullptr : std::move(table);
  TreeNode& node = tree->node(node_id);
  if (node.state != NodeState::kActive) {
    return Status::Internal("CC delivered for non-active node");
  }
  node.class_counts = cc.ClassTotals();
  node.majority_class = MajorityClass(node.class_counts);
  if (!approximate && estimated_nodes_.erase(node_id) > 0) {
    // Exact escalation under a sample-served ancestor: the node's estimated
    // data size is reconciled with the true count the exact scan reports.
    node.data_size = static_cast<uint64_t>(cc.TotalRows());
  }
  if (static_cast<uint64_t>(cc.TotalRows()) != node.data_size) {
    return Status::Internal(
        "CC row total " + std::to_string(cc.TotalRows()) +
        " != expected data size " + std::to_string(node.data_size) +
        " at node " + std::to_string(node_id));
  }

  if (IsPure(cc)) {
    node.state = NodeState::kLeaf;
    node.leaf_reason = LeafReason::kPure;
    return Status::OK();
  }
  if (config_.multiway_splits) {
    return PartitionMultiway(tree, node_id, cc, parent_cc, provider);
  }
  std::optional<BinarySplit> split =
      ChooseBestBinarySplit(cc, node.active_attrs, config_.criterion);
  if (!split.has_value() || split->gain <= config_.min_gain) {
    node.state = NodeState::kLeaf;
    node.leaf_reason = LeafReason::kNoSplit;
    return Status::OK();
  }

  node.state = NodeState::kPartitioned;
  node.split_attr = split->attr;
  node.split_value = split->value;
  const std::string& attr_name = schema_.attribute(split->attr).name;

  // Children's class distributions are derivable from this node's CC table
  // (left = counts(A, v); right = totals - left), so termination criteria
  // and class assignment for pure/small children need no further counting.
  const std::span<const int64_t> left_counts =
      cc.GetCounts(split->attr, split->value);
  std::vector<int64_t> right_counts(cc.num_classes());
  for (int k = 0; k < cc.num_classes(); ++k) {
    right_counts[k] = cc.ClassTotals()[k] - left_counts[k];
  }

  // Equals branch: the split attribute is constant there, so drop it from
  // the active set (§4.2.1). The other branch keeps it unless only one
  // value remains.
  std::vector<int> left_attrs;
  std::vector<int> right_attrs;
  for (int attr : node.active_attrs) {
    if (attr != split->attr) {
      left_attrs.push_back(attr);
      right_attrs.push_back(attr);
    } else if (cc.DistinctValues(attr) > 2) {
      right_attrs.push_back(attr);
    }
  }

  SQLCLASS_RETURN_IF_ERROR(CreateAndQueueChild(
      tree, node_id, Expr::ColEq(attr_name, split->value),
      std::move(left_attrs), left_counts, parent_cc, provider));
  SQLCLASS_RETURN_IF_ERROR(CreateAndQueueChild(
      tree, node_id, Expr::ColNe(attr_name, split->value),
      std::move(right_attrs), right_counts, parent_cc, provider));
  return Status::OK();
}

Status DecisionTreeClient::PartitionMultiway(
    DecisionTree* tree, int node_id, const CcTable& cc,
    const std::shared_ptr<const CcTable>& parent_cc, CcProvider* provider) {
  TreeNode& node = tree->node(node_id);
  std::optional<MultiwaySplit> split =
      ChooseBestMultiwaySplit(cc, node.active_attrs, config_.criterion);
  if (!split.has_value() || split->gain <= config_.min_gain) {
    node.state = NodeState::kLeaf;
    node.leaf_reason = LeafReason::kNoSplit;
    return Status::OK();
  }
  node.state = NodeState::kPartitioned;
  node.split_attr = split->attr;
  node.multiway = true;
  const std::string& attr_name = schema_.attribute(split->attr).name;

  // The split attribute is constant in every branch; drop it (§4.2.1).
  std::vector<int> child_attrs;
  for (int attr : node.active_attrs) {
    if (attr != split->attr) child_attrs.push_back(attr);
  }
  for (const auto& [value, rows] : split->branches) {
    (void)rows;
    SQLCLASS_RETURN_IF_ERROR(CreateAndQueueChild(
        tree, node_id, Expr::ColEq(attr_name, value), child_attrs,
        cc.GetCounts(split->attr, value), parent_cc, provider));
  }
  return Status::OK();
}

Status DecisionTreeClient::CreateAndQueueChild(
    DecisionTree* tree, int parent_id, std::unique_ptr<Expr> edge,
    std::vector<int> active_attrs, std::span<const int64_t> class_counts,
    const std::shared_ptr<const CcTable>& parent_cc, CcProvider* provider) {
  const bool estimate = parent_cc == nullptr;
  const uint64_t data_size = static_cast<uint64_t>(SumCounts(class_counts));
  assert(data_size > 0);
  int child_id = tree->CreateChild(parent_id, std::move(edge),
                                   std::move(active_attrs), data_size);
  TreeNode& child = tree->node(child_id);
  child.class_counts.assign(class_counts.begin(), class_counts.end());
  child.majority_class = MajorityClass(class_counts);

  if (IsPureCounts(class_counts)) {
    child.state = NodeState::kLeaf;
    child.leaf_reason = LeafReason::kPure;
    return Status::OK();
  }
  if (config_.max_depth > 0 && child.depth >= config_.max_depth) {
    child.state = NodeState::kLeaf;
    child.leaf_reason = LeafReason::kDepthLimit;
    return Status::OK();
  }
  if (data_size < config_.min_rows) {
    child.state = NodeState::kLeaf;
    child.leaf_reason = LeafReason::kMinRows;
    return Status::OK();
  }
  if (child.active_attrs.empty()) {
    child.state = NodeState::kLeaf;
    child.leaf_reason = LeafReason::kNoSplit;
    return Status::OK();
  }

  CcRequest request;
  request.node_id = child_id;
  request.parent_id = parent_id;
  request.predicate = tree->NodePredicate(child_id);
  request.active_attrs = child.active_attrs;
  request.data_size = data_size;
  request.data_size_is_estimate = estimate;
  request.parent_cc = parent_cc;
  // The children of this node inherit their leaf labels straight from its
  // CC table when they hit the depth limit; demand exact counts there.
  request.prefer_exact =
      config_.max_depth > 0 && child.depth + 1 >= config_.max_depth;
  if (estimate) estimated_nodes_.insert(child_id);
  SQLCLASS_RETURN_IF_ERROR(provider->QueueRequest(std::move(request)));
  ++requests_issued_;
  return Status::OK();
}

}  // namespace sqlclass
