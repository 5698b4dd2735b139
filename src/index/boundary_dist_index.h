#ifndef PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/bes/distance_system.h"
#include "src/util/common.h"
#include "src/util/serialization.h"

namespace pereach {

/// Query-independent WEIGHTED boundary rows of ONE fragment, as shipped to
/// the coordinator by the dist-index refresh round — the min-plus twin of
/// the closure rows. A re-encoding of FragmentContext::DistRows with local
/// ids resolved to globals:
///  - `oset_globals` is the fragment's virtual-node table (ascending local
///    order, the same table the reach index ships);
///  - one row per DISTINCT-ROW GROUP of in-nodes: the group representative's
///    global id plus the ascending (oset index, local shortest-path hops)
///    pairs the group reaches locally;
///  - one alias per non-representative member, binding it to the group rep.
///    Unlike the closure rows' SCC groups, a dist alias asserts the member's
///    whole weighted row is IDENTICAL to the rep's (distances differ across
///    an SCC's members, so same-SCC is not sufficient here); the coordinator
///    realizes each shared-row group as a one-way aux "row carrier" node
///    (member -> carrier at weight 0, carrier -> targets), which is exact
///    precisely because the rows coincide — see Ensure() for why a direct
///    member -> rep edge would not be.
struct WeightedBoundaryRows {
  std::vector<NodeId> oset_globals;
  std::vector<NodeId> rep_globals;  // one per group
  // group -> ascending (oset index, local min hops).
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> rows;
  // (member global, rep global) for every in-node that is not its group rep.
  std::vector<std::pair<NodeId, NodeId>> aliases;

  void Serialize(Encoder* enc) const;
  static WeightedBoundaryRows Deserialize(Decoder* dec);
};

/// Coordinator-side shortest-path index over the WEIGHTED boundary
/// dependency graph: one node per boundary node of the fragmentation and an
/// edge u -> w of weight d whenever u's fragment can route a local path of d
/// hops from u to its virtual copy of w. The edges are exactly the terms the
/// per-query min-plus BES (DistanceEquationSystem) would assemble from every
/// site's localEvald reply — materialized ONCE from the cached
/// FragmentContext::DistRows instead of re-shipped per query — so a
/// bidirectional Dijkstra over this standing graph, seeded with the s-side
/// exit distances and t-side entry distances of one targeted round, computes
/// the same least fixpoint as the paper's evalDGd.
///
/// Bound semantics: localEvald only emits local segments of <= l hops, so
/// the assembled BES never contains a heavier edge. ShortestPath takes the
/// query bound as `max_edge_weight` and skips heavier standing edges during
/// the search, keeping indexed answers bit-identical to the BES path even
/// for answers that end up above the bound (the distance value is reported
/// either way; `reachable` applies the bound on top).
///
/// Incremental maintenance and thread-safety mirror BoundaryReachIndex: the
/// owner marks fragments dirty on the InvalidateFragment path, re-fetches
/// only the dirty fragments' rows, and Ensure() rebuilds the small CSR pair
/// (forward + reverse) from the per-fragment row cache. No internal locking;
/// the engine's single-dispatcher discipline provides the exclusion.
class BoundaryDistIndex {
 public:
  explicit BoundaryDistIndex(size_t num_fragments);

  /// Installs the weighted boundary rows of one fragment and clears its
  /// dirty bit.
  void SetFragmentRows(SiteId site, WeightedBoundaryRows rows);

  /// Marks one fragment's rows stale (an update structurally touched it).
  void InvalidateFragment(SiteId site);
  void InvalidateAll();

  /// Fragments whose rows must be re-fetched before Ensure() can run.
  std::vector<SiteId> DirtySites() const;
  bool dirty() const { return stale_; }

  /// Rebuilds the forward/reverse CSR from the cached per-fragment rows.
  /// Requires DirtySites() empty. Idempotent when clean.
  void Ensure();

  /// The fragment's virtual-node table, as installed by SetFragmentRows —
  /// dist sweep frames reference it by index.
  const std::vector<NodeId>& oset_globals(SiteId site) const;

  /// One endpoint-side seed of a search: a boundary node plus the
  /// query-dependent distance from s to it (forward side) or from it to t
  /// (backward side), both already <= the query bound by construction.
  struct Seed {
    NodeId node = kInvalidNode;
    uint64_t dist = 0;
  };

  /// True iff `global` is a boundary node of the current epoch — a valid
  /// search seed. Callers seeding from a site reply check this first.
  bool IsBoundaryNode(NodeId global) const;

  /// min over (u, v) of sources[u].dist + d_B(u -> v) + targets[v].dist,
  /// where d_B is the boundary-graph distance using only edges of weight
  /// <= max_edge_weight; kInfWeight when no such route exists. Bidirectional
  /// Dijkstra: both frontiers expand toward each other and the search stops
  /// once the frontier tops prove the incumbent optimal. Seeds naming nodes
  /// of the current epoch only (IsBoundaryNode); CHECK-fails otherwise.
  uint64_t ShortestPath(std::span<const Seed> sources,
                        std::span<const Seed> targets,
                        uint32_t max_edge_weight);

  // --- observability -------------------------------------------------------
  /// Real boundary nodes (aux row carriers excluded).
  size_t num_boundary_nodes() const { return node_of_.size(); }
  size_t num_edges() const { return fwd_targets_.size(); }
  /// Full CSR rebuilds performed (dirty-epoch count).
  size_t rebuild_count() const { return rebuild_count_; }
  /// ShortestPath calls, and total nodes settled across them — the indexed
  /// coordinator work a BES solve would have re-derived per query.
  size_t search_count() const { return search_count_; }
  size_t settled_nodes() const { return settled_nodes_; }

  /// Rough resident size of the rebuilt structure, bytes.
  size_t ByteSize() const;

 private:
  uint32_t DenseOf(NodeId global) const;

  size_t num_fragments_;
  std::vector<WeightedBoundaryRows> fragment_rows_;
  std::vector<bool> have_rows_;
  std::vector<bool> dirty_;
  bool stale_ = true;  // CSR out of date w.r.t. the rows

  // Rebuilt structure (valid while !stale_). Forward CSR answers the s-side
  // frontier, reverse CSR the t-side frontier.
  std::unordered_map<NodeId, uint32_t> node_of_;  // boundary global -> dense
  std::vector<size_t> fwd_offsets_;
  std::vector<uint32_t> fwd_targets_;
  std::vector<uint32_t> fwd_weights_;
  std::vector<size_t> rev_offsets_;
  std::vector<uint32_t> rev_targets_;
  std::vector<uint32_t> rev_weights_;

  // Versioned per-search scratch: a search touches only the nodes it
  // reaches, so the arrays are stamped instead of re-cleared.
  std::vector<uint64_t> dist_[2];      // [0] forward, [1] backward
  std::vector<uint32_t> visit_mark_[2];
  uint32_t visit_version_ = 0;

  size_t rebuild_count_ = 0;
  size_t search_count_ = 0;
  size_t settled_nodes_ = 0;
};

}  // namespace pereach

#endif  // PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_
