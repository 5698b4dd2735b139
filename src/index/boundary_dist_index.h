#ifndef PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/bes/distance_system.h"
#include "src/index/boundary_index.h"
#include "src/util/common.h"

namespace pereach {

/// Coordinator-side bounded-distance index over the fragments' GLUED LOCAL
/// GRAPHS: every fragment ships its whole local graph as BoundaryRows, each
/// node its own component (FragmentContext::dist_rows), so the glued graph
/// has one node per (fragment, local node) and one edge per edge of G.
/// Where BoundaryReachIndex adds a glue edge from a virtual copy to its real
/// copy, this index redirects every edge into a virtual copy onto the real
/// copy itself: a glue edge would count as a hop. The real copies and the
/// edges between them are then G, node for node and edge for edge (every
/// edge of G is stored once, at its source's fragment, as a local edge or
/// as a cross edge to a virtual copy), and a virtual copy is an isolated
/// node. So the hop distance from node(s) to node(t) is dist(s, t) in G,
/// and a query's whole site-side contribution is one local id per endpoint.
///
/// Distance() answers the paper's q_br(s, t, l) with one bidirectional BFS
/// that stops at the bound: it reports the distance when it is at most l
/// and kInfWeight otherwise (the QueryAnswer::distance contract).
///
/// The coordinator holds about |G|: this is the ship-all baseline's graph,
/// shipped once and cached across updates instead of once per query. Ensure
/// resolves the virtual copies while it builds the forward and reverse CSR,
/// so the search never looks a node up.
class BoundaryDistIndex : public GluedFragments {
 public:
  explicit BoundaryDistIndex(size_t num_fragments)
      : GluedFragments(num_fragments) {}

  /// dist(s, t) in G when it is at most `bound`, kInfWeight otherwise, for
  /// the Node() ids of s and t (CHECK-fails on any other id). Expands the
  /// smaller frontier one level at a time and stops once the two depths
  /// add up to the bound.
  uint64_t Distance(uint32_t s, uint32_t t, uint32_t bound);

  // --- observability -------------------------------------------------------
  size_t num_edges() const { return fwd_targets_.size(); }
  /// Distance calls, and total nodes expanded across them — the indexed
  /// coordinator work a BES solve would have re-derived per query.
  size_t search_count() const { return search_count_; }
  size_t settled_nodes() const { return settled_nodes_; }

  /// Rough resident size of the rebuilt structure, bytes.
  size_t ByteSize() const;

 private:
  /// The forward and reverse CSR, every edge into a virtual copy with a
  /// real copy redirected onto it.
  void Build(
      const std::unordered_map<uint64_t, uint32_t>& real_copy) override;

  // Forward CSR for the s-side frontier, reverse CSR for the t-side one.
  std::vector<size_t> fwd_offsets_;
  std::vector<uint32_t> fwd_targets_;
  std::vector<size_t> rev_offsets_;
  std::vector<uint32_t> rev_targets_;

  // Versioned per-search scratch: a search touches only the nodes it
  // reaches, so the marks are stamped instead of re-cleared.
  std::vector<uint32_t> visit_mark_[2];  // [0] forward, [1] backward
  uint32_t visit_version_ = 0;
  std::vector<uint32_t> frontier_[2];
  std::vector<uint32_t> next_;

  size_t search_count_ = 0;
  size_t settled_nodes_ = 0;
};

}  // namespace pereach

#endif  // PEREACH_INDEX_BOUNDARY_DIST_INDEX_H_
