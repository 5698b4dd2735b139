#ifndef PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/bes/distance_system.h"
#include "src/util/common.h"
#include "src/util/serialization.h"

namespace pereach {

/// Query-independent WEIGHTED boundary rows of ONE fragment: localEvald's
/// min-plus equation of every in-node, unbounded, in CSR form. The site
/// builds them (FragmentContext::dist_rows), the dist-index refresh round
/// ships them, and the coordinator's index keeps them as shipped.
///  - `oset_globals` is the fragment's virtual-node table (ascending local
///    order, the same table the reach index ships);
///  - `in_globals` lists the in-nodes (ascending local order);
///  - in-node i's row is targets/hops[offsets[i] .. offsets[i + 1]): the
///    oset index of every virtual node it reaches locally, ascending, and
///    the local shortest-path hop count to it.
/// Rows are never shared: distances differ across an SCC's members.
struct WeightedBoundaryRows {
  std::vector<NodeId> oset_globals;
  std::vector<NodeId> in_globals;
  std::vector<size_t> offsets;    // in_globals.size() + 1 entries
  std::vector<uint32_t> targets;  // oset indices
  std::vector<uint32_t> hops;

  void Serialize(Encoder* enc) const;
  /// Tolerant in kStatus mode: a target at or past the oset table, a
  /// truncated row or a byte after the last row fails the decode.
  static WeightedBoundaryRows Deserialize(Decoder* dec);
};

/// Coordinator-side shortest-path index over the WEIGHTED boundary
/// dependency graph: one node per in-node of the fragmentation — fragment
/// s's in-node i is node node_base_[s] + i — and an edge u -> w of weight d
/// whenever u's row reaches w's virtual copy in d local hops (cross edge
/// included). Every virtual node is an in-node of the fragment storing its
/// real copy, so the nodes are the whole boundary. The edges are exactly
/// the terms the per-query min-plus BES (DistanceEquationSystem) would
/// assemble from every site's localEvald reply — shipped ONCE instead of
/// per query — so a bidirectional Dijkstra over this standing graph,
/// seeded with the s-side exit distances and t-side entry distances of one
/// targeted round, computes the same least fixpoint as the paper's evalDGd.
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
/// only the dirty fragments' rows, and Ensure() rebuilds the CSR pair
/// (forward + reverse) from the per-fragment rows. No internal locking;
/// the engine's single-dispatcher discipline provides the exclusion.
class BoundaryDistIndex {
 public:
  /// What InNode() and oset_nodes() hold for a global that is no in-node.
  static constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

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

  /// The node of each entry of the fragment's installed oset table — dist
  /// sweep frames name exits by oset index — or kNoNode for an entry no
  /// fragment lists as an in-node (only a forged table has one): a dead
  /// end, with no node and no edge into it.
  const std::vector<uint32_t>& oset_nodes(SiteId site) const;

  /// The node of in-node `global`, or kNoNode when no fragment of the
  /// current epoch lists it — the check every entry taken from a site reply
  /// passes through.
  uint32_t InNode(uint64_t global) const;

  /// One endpoint-side seed of a search: a node plus the query-dependent
  /// distance from s to it (forward side) or from it to t (backward side),
  /// both already <= the query bound by construction.
  struct Seed {
    uint32_t node = kNoNode;
    uint64_t dist = 0;
  };

  /// min over (u, v) of sources[u].dist + d_B(u -> v) + targets[v].dist,
  /// where d_B is the boundary-graph distance using only edges of weight
  /// <= max_edge_weight; kInfWeight when no such route exists. Bidirectional
  /// Dijkstra: both frontiers expand toward each other and the search stops
  /// once the frontier tops prove the incumbent optimal. Seeds name nodes
  /// of the current epoch only (InNode, oset_nodes); CHECK-fails otherwise.
  uint64_t ShortestPath(std::span<const Seed> sources,
                        std::span<const Seed> targets,
                        uint32_t max_edge_weight);

  // --- observability -------------------------------------------------------
  /// Nodes of the graph: the fragments' in-nodes, summed.
  size_t num_boundary_nodes() const { return node_base_.back(); }
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
  size_t num_fragments_;
  std::vector<WeightedBoundaryRows> fragment_rows_;
  std::vector<bool> have_rows_;
  std::vector<bool> dirty_;
  bool stale_ = true;  // CSR out of date w.r.t. the rows

  // Rebuilt structure (valid while !stale_). Forward CSR answers the s-side
  // frontier, reverse CSR the t-side frontier.
  std::vector<uint32_t> node_base_;                // num_fragments_ + 1
  std::unordered_map<NodeId, uint32_t> node_of_;   // in-node global -> node
  std::vector<std::vector<uint32_t>> oset_nodes_;  // per fragment
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
