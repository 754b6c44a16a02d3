#ifndef SQLCLASS_MINING_CC_PROVIDER_H_
#define SQLCLASS_MINING_CC_PROVIDER_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/status.h"
#include "mining/cc_table.h"
#include "sql/expr.h"

namespace sqlclass {

/// One client request for the CC table of an active tree node (Fig. 3's
/// request queue entries).
struct CcRequest {
  /// Client's node id; echoed back on fulfillment.
  int node_id = -1;

  /// Parent's node id, or -1 for the root. Providers that keep per-node
  /// metadata (the middleware's estimator) use this to look up parent
  /// cardinalities.
  int parent_id = -1;

  /// Full path predicate of the node (conjunction of edge predicates, §4.3.1).
  /// Unbound; the provider binds it against its own schema.
  std::unique_ptr<Expr> predicate;

  /// Attribute columns to count at this node (attributes still varying).
  std::vector<int> active_attrs;

  /// Exact data-set size of the node. The client computes this from the
  /// parent's CC table when it creates the node (§4.2.1: |n_i| is known
  /// precisely); for the root the provider may overwrite it from table
  /// metadata.
  uint64_t data_size = 0;

  /// True when `data_size` was derived from an *approximate* (sample-served)
  /// parent CC table and is therefore an estimate, not the exact row count.
  /// Providers must not enforce exact-total invariants against it; an exact
  /// scan for this node reports the true count and the client reconciles.
  bool data_size_is_estimate = false;

  /// True when the client needs *exact* counts for this node and approximate
  /// providers (the sample path) must not substitute estimates. The tree
  /// client sets it for the last splittable level: those nodes' CC tables
  /// become their children's leaf class labels verbatim, so sampling noise
  /// there lands directly on classification accuracy with no deeper pass to
  /// correct it.
  bool prefer_exact = false;

  /// The parent's exact CC table, shared by all of its children's
  /// requests; null for the root and under a sample-served (approximate)
  /// parent. Whoever sets it promises that the parent counted every
  /// attribute its children count, and that the children's data sets are
  /// disjoint subsets of the parent's. An exact provider may then derive
  /// one child of a sibling group it counts in full as the parent's table
  /// minus its siblings' (CcTable::AddDifference), and bound a child's
  /// cells by the parent's card(p, A). Providers are free to ignore it.
  std::shared_ptr<const CcTable> parent_cc;
};

/// A fulfilled request: the node's CC table.
struct CcResult {
  CcResult(int node_id_in, CcTable cc_in)
      : node_id(node_id_in), cc(std::move(cc_in)) {}

  int node_id;
  CcTable cc;

  /// True when the CC was served from the table's scramble (scheduler
  /// Rule 7) and scaled up to the node's data size: cell counts are
  /// estimates. Clients must treat data sizes derived from it as estimates
  /// (CcRequest::data_size_is_estimate) on any follow-up requests.
  bool approximate = false;
};

/// The middleware-facing contract of §3: the client queues a *batch* of
/// requests — one per active node — then repeatedly asks the provider to
/// fulfill some of them. The provider chooses which requests to service and
/// in what order (that freedom is what the scheduler exploits); the client
/// must accept results in any order.
class CcProvider {
 public:
  virtual ~CcProvider() = default;

  /// Enqueues a request. The provider takes ownership.
  [[nodiscard]] virtual Status QueueRequest(CcRequest request) = 0;

  /// Services one scheduler-chosen batch of pending requests and returns
  /// their CC tables. Returns an empty vector only when no requests are
  /// pending. Never returns results for requests that were not queued.
  [[nodiscard]] virtual StatusOr<std::vector<CcResult>> FulfillSome() = 0;

  /// Fig. 3's "processed nodes" arrow: the client calls this once it has
  /// consumed a delivered CC table and queued any follow-up requests for
  /// the node's children. Providers that hold per-node resources (the
  /// middleware's staged stores) may only reclaim them after release.
  /// Default: no resources to release.
  virtual void ReleaseNode(int node_id) { (void)node_id; }

  /// Pending (queued, unfulfilled) request count.
  virtual size_t PendingRequests() const = 0;
};

}  // namespace sqlclass

#endif  // SQLCLASS_MINING_CC_PROVIDER_H_
