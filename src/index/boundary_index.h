#ifndef PEREACH_INDEX_BOUNDARY_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_INDEX_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/index/reach_labels.h"
#include "src/util/common.h"
#include "src/util/serialization.h"

namespace pereach {

/// Query-independent boundary rows of ONE fragment, as shipped to the
/// coordinator by the boundary-index refresh round. This is a re-encoding of
/// FragmentContext::ReachRows with local ids resolved to globals:
///  - `oset_globals` is the fragment's virtual-node table (ascending local
///    order — the same shared table batched reach replies use);
///  - one row per in-node SCC GROUP: the group representative's global id
///    plus the ascending oset indices the group reaches locally;
///  - one alias per non-representative in-node, binding it to its group's
///    representative (same local SCC, hence boundary-equivalent).
struct BoundaryRows {
  std::vector<NodeId> oset_globals;
  std::vector<NodeId> rep_globals;          // one per group
  std::vector<std::vector<uint32_t>> rows;  // group -> ascending oset indices
  // (member global, rep global) for every in-node that is not its group rep.
  std::vector<std::pair<NodeId, NodeId>> aliases;

  void Serialize(Encoder* enc) const;
  static BoundaryRows Deserialize(Decoder* dec);
};

/// Coordinator-side reachability index over the BOUNDARY DEPENDENCY GRAPH:
/// one node per boundary node of the fragmentation (global ids of in-nodes,
/// equivalently of virtual nodes — every virtual node is an in-node of the
/// fragment that stores its real copy), and an edge u -> w whenever u's
/// fragment can route a path from u to its virtual copy of w locally. The
/// edges are exactly the cached query-independent closure rows every
/// fragment already holds (FragmentContext::ReachRows), so the graph is
/// typically orders of magnitude smaller than G (|V_f| nodes, the paper's
/// boundary measure), and a path in it composes fragment-local path
/// segments of G — reachability between boundary nodes in this graph is
/// reachability in G.
///
/// On top of the graph the index keeps its SCC condensation plus GRAIL-style
/// labels (ReachLabels, the coordinator core shared with the product
/// boundary graph of BoundaryRpqIndex): certain positives from DFS-tree
/// intervals, certain negatives from post-order interval containment, and a
/// label-pruned DFS fallback for the rest — every answer is exact.
///
/// Incremental maintenance mirrors the FragmentContext cache: the owner
/// marks fragments dirty on the IncrementalReachIndex::SetUpdateListener /
/// EpochGate invalidation path, re-fetches ONLY the dirty fragments' rows
/// (the per-fragment sweeps are the expensive part), and Ensure() rebuilds
/// the small condensation + labels from the per-fragment row cache.
///
/// Thread-safety: none. One index belongs to one engine; the engine's
/// single-dispatcher discipline (and the server's exclusive writer gate
/// around invalidation) provides the exclusion.
class BoundaryReachIndex {
 public:
  /// One coordinator reach question of a batch: does ANY source boundary
  /// node reach ANY target boundary node? Spans must stay alive through
  /// AnswerBatch; empty sides answer false.
  struct ReachQuestion {
    std::span<const NodeId> sources;
    std::span<const NodeId> targets;
  };

  /// `shortcut_budget` caps the transitive shortcut edges ReachLabels adds
  /// to the boundary condensation at each rebuild (0 disables; answers are
  /// identical either way, only traversal depth changes).
  explicit BoundaryReachIndex(size_t num_fragments,
                              size_t shortcut_budget = 0);

  /// Installs the boundary rows of one fragment and clears its dirty bit.
  void SetFragmentRows(SiteId site, BoundaryRows rows);

  /// Marks one fragment's rows stale (an update structurally touched it).
  void InvalidateFragment(SiteId site);
  void InvalidateAll();

  /// Fragments whose rows must be re-fetched before Ensure() can run.
  std::vector<SiteId> DirtySites() const;
  bool dirty() const { return stale_; }

  /// Rebuilds the boundary graph, condensation and labels from the cached
  /// per-fragment rows. Requires DirtySites() empty. Idempotent when clean.
  void Ensure();

  /// The fragment's virtual-node table, as installed by SetFragmentRows —
  /// reach frames reference it by index, exactly like batched BES replies.
  /// Ensure() interns every entry, so each is a boundary node.
  const std::vector<NodeId>& oset_globals(SiteId site) const;

  /// True iff `global` is a boundary node of the current epoch — a valid
  /// question endpoint. Callers taking endpoints from a site reply check
  /// this first.
  bool IsBoundaryNode(NodeId global) const;

  /// True iff boundary node u reaches boundary node v (reflexive). Both must
  /// be boundary nodes of the current epoch; CHECK-fails otherwise.
  bool Reaches(NodeId u, NodeId v);

  /// True iff ANY source reaches ANY target (reflexive; duplicate entries
  /// are fine). One label pass over the source x target component pairs,
  /// then at most one multi-source label-pruned DFS.
  bool ReachesAny(std::span<const NodeId> sources,
                  std::span<const NodeId> targets);

  /// Answers a whole batch, `(*answers)[i] = ReachesAny(questions[i])`,
  /// 64 questions per bit-parallel word (ReachLabels::ReachesAnyWord): label
  /// pre-filtering per lane, then ONE shared sweep per word instead of a
  /// DFS fallback per question. Resizes `answers`.
  void AnswerBatch(std::span<const ReachQuestion> questions,
                   std::vector<uint8_t>* answers);

  // --- observability -------------------------------------------------------
  size_t num_boundary_nodes() const { return dense_of_.size(); }
  size_t num_components() const { return labels_.num_components(); }
  size_t num_edges() const { return labels_.num_edges(); }
  /// Full condensation + label rebuilds performed (dirty-epoch count).
  size_t rebuild_count() const { return rebuild_count_; }
  /// Lookups (Reaches / ReachesAny calls) decided by labels alone vs
  /// lookups that needed the pruned-DFS fallback for at least one pair.
  size_t label_hits() const { return labels_.label_hits(); }
  size_t dfs_fallbacks() const { return labels_.dfs_fallbacks(); }
  /// Batch-path counters (see ReachLabels): words answered, words that
  /// needed a sweep, lanes answered by sweeps, cumulative sweep expansions,
  /// and shortcut edges added by the last rebuild.
  size_t batch_words() const { return labels_.batch_words(); }
  size_t sweep_count() const { return labels_.sweep_count(); }
  size_t sweep_lanes() const { return labels_.sweep_lanes(); }
  size_t sweep_depth() const { return labels_.sweep_depth(); }
  size_t shortcut_count() const { return labels_.shortcut_count(); }

  /// Rough resident size of the rebuilt structure, bytes.
  size_t ByteSize() const;

 private:
  /// Dense id of a boundary-node global id; CHECK-fails for non-boundary
  /// nodes (a query endpoint outside the current epoch's universe).
  uint32_t DenseOf(NodeId global) const;

  size_t num_fragments_;
  size_t shortcut_budget_;
  std::vector<BoundaryRows> fragment_rows_;
  std::vector<bool> have_rows_;
  std::vector<bool> dirty_;
  bool stale_ = true;  // condensation/labels out of date w.r.t. the rows

  // Rebuilt structure (valid while !stale_): the boundary-node universe and
  // the shared condensation + GRAIL labels over it.
  std::unordered_map<NodeId, uint32_t> dense_of_;  // boundary global -> dense
  ReachLabels labels_;

  // AnswerBatch scratch (flat dense-id storage + the word under assembly),
  // reused across calls so the batch path allocates nothing steady-state.
  std::vector<uint32_t> batch_nodes_;
  std::vector<WordQuestion> batch_word_;

  size_t rebuild_count_ = 0;
};

}  // namespace pereach

#endif  // PEREACH_INDEX_BOUNDARY_INDEX_H_
