#ifndef PEREACH_CORE_INCREMENTAL_H_
#define PEREACH_CORE_INCREMENTAL_H_

#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "src/fragment/fragmentation.h"
#include "src/graph/graph.h"
#include "src/util/common.h"

namespace pereach {

/// The mutable fragmentation behind incremental partial evaluation — the
/// paper's §8 future work ("combine partial evaluation and incremental
/// computation").
///
/// The query-independent structure partial evaluation reuses lives in
/// per-fragment caches outside this class (a PartialEvalEngine's
/// FragmentContextCache, its boundary indexes). This class owns the graph's
/// edge list and fragmentation, applies edge insertions, and reports every
/// fragment an insertion touches through the update listener, so those
/// caches drop exactly what changed: AddEdge(u, v) touches u's fragment
/// always (its reachable sets grow), and v's when the edge crosses
/// fragments (v becomes an in-node). Every other fragment's caches survive.
class IncrementalReachIndex {
 public:
  IncrementalReachIndex(const Graph& graph, std::vector<SiteId> partition,
                        size_t num_sites);

  /// Inserts edge (u, v) and reports the touched fragments. One call is one
  /// update epoch.
  void AddEdge(NodeId u, NodeId v);

  /// Inserts a batch of edges as ONE update epoch: the listener fires once
  /// per distinct touched fragment, and the structural rebuild — the
  /// expensive part of the writer path — runs once for the whole batch.
  /// This is the amortized writer path the QueryServer's update queue uses.
  /// Every endpoint must be a node of the graph.
  void AddEdges(std::span<const std::pair<NodeId, NodeId>> edges);

  /// Number of update epochs applied (non-empty AddEdge / AddEdges calls).
  /// QueryServer's writer path checks its gate's committed epoch against
  /// this after every update, so the serving snapshot counter and the
  /// index's applied-update count cannot drift apart.
  uint64_t epoch() const { return epoch_; }

  /// Registers a callback invoked with every fragment id an AddEdge
  /// touches (u's fragment, and v's when the edge crosses fragments).
  /// External caches keyed by fragment — e.g. a PartialEvalEngine's
  /// FragmentContextCache over this index's fragmentation — hook here so
  /// all update flows share one invalidation path.
  void SetUpdateListener(std::function<void(SiteId)> listener) {
    update_listener_ = std::move(listener);
  }

  const Fragmentation& fragmentation() const { return fragmentation_; }

 private:
  void RebuildStructure();

  // Mutable edge list + labels; fragmentation is rebuilt from these.
  std::vector<std::pair<NodeId, NodeId>> edges_;
  std::vector<LabelId> labels_;
  std::vector<SiteId> partition_;
  size_t num_sites_;

  Fragmentation fragmentation_;
  uint64_t epoch_ = 0;
  std::function<void(SiteId)> update_listener_;
};

}  // namespace pereach

#endif  // PEREACH_CORE_INCREMENTAL_H_
