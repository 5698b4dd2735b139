#ifndef PEREACH_INDEX_BOUNDARY_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_INDEX_H_

#include <cstdint>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/index/reach_labels.h"
#include "src/util/common.h"
#include "src/util/serialization.h"

namespace pereach {

/// Query-independent structure of ONE fragment, as shipped to the
/// coordinator by a refresh round: a graph over the fragment's components
/// with its boundary resolved to global KEYS. The reach round ships the
/// local graph's condensation (FragmentContext::cond), keyed by global node
/// id; the rpq round ships one automaton's product condensation
/// (FragmentContext::RpqProduct::cond), keyed by PackNodeState(global id,
/// state) — one key per product pair of a boundary node; the dist round
/// ships the local graph itself (FragmentContext::dist_rows), each node its
/// own component, keyed by global node id.
///  - `offsets` / `targets`: the graph in CSR form, component c's
///    successors ascending at targets[offsets[c] .. offsets[c + 1]);
///  - `oset_keys` / `oset_comp`: the virtual nodes (ascending local order)
///    or their product pairs, and the component each one is;
///  - `in_keys` / `in_comp`: the in-nodes or their product pairs, and the
///    component of each.
struct BoundaryRows {
  std::vector<size_t> offsets;  // num_components() + 1 entries
  std::vector<uint32_t> targets;
  std::vector<uint64_t> oset_keys;
  std::vector<uint32_t> oset_comp;
  std::vector<uint64_t> in_keys;
  std::vector<uint32_t> in_comp;

  size_t num_components() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  void Serialize(Encoder* enc) const;
  /// Tolerant in kStatus mode: an edge target, oset component or in-node
  /// component at or past num_components() fails the decode.
  static BoundaryRows Deserialize(Decoder* dec);
};

/// What every glued-graph index shares — reach and each rpq entry over the
/// fragments' condensations, dist over their local graphs: the per-fragment
/// rows as the refresh round shipped them, their dirty bits, and the
/// numbering of the glued graph's nodes (fragment s's component c is node
/// node_base_[s] + c). Ensure() renumbers the nodes, maps every in-table
/// key to its node — the real copy of every virtual copy with that key
/// (every virtual node is an in-node at its owning fragment) — and hands
/// the map to the subclass's Build, which says what graph the index keeps.
///
/// Incremental maintenance mirrors the FragmentContext cache: the owner
/// marks fragments dirty on the IncrementalReachIndex::SetUpdateListener /
/// EpochGate invalidation path, re-fetches ONLY the dirty fragments' rows,
/// and Ensure() rebuilds from the per-fragment cache.
///
/// Thread-safety: none. One index belongs to one engine; the engine's
/// single-dispatcher discipline (and the server's exclusive writer gate
/// around invalidation) provides the exclusion.
class GluedFragments {
 public:
  /// What Node() returns for a component id past its fragment's count.
  static constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

  explicit GluedFragments(size_t num_fragments);
  virtual ~GluedFragments() = default;
  GluedFragments(const GluedFragments&) = delete;
  GluedFragments& operator=(const GluedFragments&) = delete;

  /// Installs the rows of one fragment and clears its dirty bit.
  void SetFragmentRows(SiteId site, BoundaryRows rows);

  /// Marks one fragment's rows stale (an update structurally touched it).
  void InvalidateFragment(SiteId site);
  void InvalidateAll();

  /// Fragments whose rows must be re-fetched before Ensure() can run.
  std::vector<SiteId> DirtySites() const;
  bool dirty() const { return stale_; }

  /// Rebuilds the glued graph from the cached per-fragment rows. Requires
  /// DirtySites() empty. Idempotent when clean.
  void Ensure();

  /// The graph node of component `comp` of fragment `site`, or kNoNode when
  /// `comp` is not below the fragment's installed component count — the
  /// check every id taken from a sweep frame passes through.
  uint32_t Node(SiteId site, uint64_t comp) const;

  // --- observability -------------------------------------------------------
  /// Nodes of the glued graph: the fragments' components, summed.
  size_t num_nodes() const { return node_base_.back(); }
  /// Full graph rebuilds performed (dirty-epoch count).
  size_t rebuild_count() const { return rebuild_count_; }

 protected:
  /// Builds the graph over num_nodes() nodes from fragment_rows_.
  /// `real_copy` maps every in-table key to the node of that real copy. An
  /// oset key it lacks (only a forged table has one) has no real copy: the
  /// index must leave that virtual copy a dead end.
  virtual void Build(
      const std::unordered_map<uint64_t, uint32_t>& real_copy) = 0;

  /// Rough resident size of the installed rows, bytes.
  size_t RowsByteSize() const;

  size_t num_fragments_;
  std::vector<BoundaryRows> fragment_rows_;
  std::vector<uint32_t> node_base_;  // num_fragments_ + 1 entries

 private:
  std::vector<bool> have_rows_;
  std::vector<bool> dirty_;
  bool stale_ = true;  // graph out of date w.r.t. the rows
  size_t rebuild_count_ = 0;
};

/// Coordinator-side reachability index over the fragments' GLUED
/// CONDENSATIONS: one node per (fragment, component of its installed
/// condensation), the condensation edges of every fragment, and one glue
/// edge from each virtual copy's component to the component of its real
/// copy at the owning fragment.
/// The graph is exact for G: a local path maps onto its fragment's
/// condensation, and a cross edge a -> w maps onto a's component reaching
/// w's virtual copy, then the glue edge to comp(w) at w's owner. Conversely
/// every edge of the graph is witnessed by a path of G (a virtual node is a
/// local sink, so its component is itself). So component(s) reaches
/// component(t) in this graph iff s reaches t in G — a query's whole
/// site-side contribution is one component id per endpoint, and its
/// traffic is O(|Q|) whatever the fragments' boundaries are. The graph has
/// the fragments' condensation sizes, not |I| x |O| closure rows.
///
/// The same class, over pair-keyed product condensations, is every entry of
/// BoundaryRpqIndex: each virtual pair (w, q) is glued to the real pair
/// (w, q) at w's owner, and (s, u_s) reaches (t, u_t) in that graph iff
/// s reaches t along a path matching the automaton (DESIGN.md §9).
///
/// On top of the graph the index keeps the SCC condensation plus GRAIL-style
/// labels of ReachLabels: certain positives from DFS-tree intervals, certain
/// negatives from post-order interval containment, and a label-pruned DFS or
/// a 64-lane sweep for the rest — every answer is exact.
class BoundaryReachIndex : public GluedFragments {
 public:
  explicit BoundaryReachIndex(size_t num_fragments)
      : GluedFragments(num_fragments) {}

  /// Appends to `out` the nodes `node`'s component points to in its own
  /// fragment's installed condensation (glue edges excluded). `node` must be
  /// a Node() id.
  void AppendSuccessors(uint32_t node, std::vector<uint32_t>* out) const;

  /// True iff node u reaches node v (reflexive). Both must be Node() ids;
  /// CHECK-fails otherwise.
  bool Reaches(uint32_t u, uint32_t v);

  /// Answers a whole batch of set questions by Node() id: `(*answers)[i]`
  /// is whether ANY source of questions[i] reaches ANY of its targets
  /// (reflexive; an empty side answers false). 64 questions per
  /// bit-parallel word (ReachLabels::ReachesAnyWord): label pre-filtering
  /// per lane, then ONE shared sweep per word instead of a DFS fallback per
  /// question. Resizes `answers`.
  void AnswerBatch(std::span<const WordQuestion> questions,
                   std::vector<uint8_t>* answers);

  // --- observability -------------------------------------------------------
  size_t num_edges() const { return labels_.num_edges(); }
  /// Lookups (Reaches calls, word lanes) decided by labels alone vs
  /// lookups that needed the pruned-DFS fallback.
  size_t label_hits() const { return labels_.label_hits(); }
  size_t dfs_fallbacks() const { return labels_.dfs_fallbacks(); }
  /// Batch-path counters (see ReachLabels): words answered, lanes answered
  /// by sweeps, and cumulative sweep expansions.
  size_t batch_words() const { return labels_.batch_words(); }
  size_t sweep_lanes() const { return labels_.sweep_lanes(); }
  size_t sweep_depth() const { return labels_.sweep_depth(); }

  /// Rough resident size of the rebuilt structure, bytes.
  size_t ByteSize() const;

 private:
  /// The condensation edges plus one glue edge per oset entry with a real
  /// copy, handed to the labels.
  void Build(
      const std::unordered_map<uint64_t, uint32_t>& real_copy) override;

  ReachLabels labels_;
};

}  // namespace pereach

#endif  // PEREACH_INDEX_BOUNDARY_INDEX_H_
