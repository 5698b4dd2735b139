#ifndef PEREACH_INDEX_REACH_LABELS_H_
#define PEREACH_INDEX_REACH_LABELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/util/common.h"
#include "src/util/logging.h"
#include "src/util/sync.h"

namespace pereach {

/// One of up to 64 questions of a batched coordinator word, by dense node
/// id: "does ANY source reach ANY target?" (reflexive; duplicates fine).
/// Empty sources or targets answer false.
struct WordQuestion {
  std::span<const uint32_t> sources;
  std::span<const uint32_t> targets;
};

/// 64-lane multi-source forward mask propagation over a CSR DAG whose node
/// ids are reverse-topological (every edge u -> v has v < u, the invariant
/// our SCC condensations guarantee). Each lane is one independent
/// reachability question; one descending-id sweep answers the whole word:
/// when a node is expanded every contributor (a higher id) has already been
/// expanded, so its lane mask is final and each node is processed at most
/// once — O(nodes-in-range + edges) for 64 questions instead of 64
/// traversals. Target hits are detected at push time, so the sweep exits as
/// soon as every live lane has found a target.
///
/// Scratch is owned by the engine and cleared via a touched list, so
/// back-to-back runs cost O(touched), not O(num_nodes).
class BitsetSweep {
 public:
  static constexpr size_t kLanes = 64;  // one bit of a uint64_t per lane

  /// Sizes the scratch for graphs of `num_nodes` nodes (all masks clear).
  void Resize(size_t num_nodes);

  /// Seeds the `lanes` whose questions have a source / target at `node`.
  /// Reflexive hits (a node seeded as both source and target of one lane)
  /// are recorded immediately.
  void SeedSources(uint32_t node, uint64_t lanes);
  void SeedTargets(uint32_t node, uint64_t lanes);

  /// Propagates the seeded source masks over the CSR graph and returns the
  /// word of `undecided` lanes with some source reaching some target. Lanes
  /// outside `undecided` are neither propagated nor reported. Consumes the
  /// seeds: the engine is ready for the next word when this returns.
  uint64_t Run(std::span<const size_t> offsets,
               std::span<const uint32_t> targets, uint64_t undecided);

  /// Nodes expanded by the most recent Run — the depth measure the early
  /// positive exit cuts.
  size_t last_depth() const { return last_depth_; }

 private:
  /// Registers `node` in the touched list on first contact of a run.
  void Touch(uint32_t node);

  std::vector<uint64_t> mask_;     // lanes whose sources reach the node
  std::vector<uint64_t> tmask_;    // lanes for which the node is a target
  std::vector<uint8_t> pending_;  // node carries unexpanded source mass
  std::vector<uint8_t> dirty_;     // node is on the touched list
  std::vector<uint32_t> touched_;  // nodes to re-clear after the run
  uint64_t seed_hits_ = 0;  // lanes decided reflexively while seeding
  uint32_t max_seed_ = 0;
  uint32_t min_target_ = 0;
  bool have_seed_ = false;
  bool have_target_ = false;
  size_t last_depth_ = 0;
};

/// GRAIL-style reachability labels over the SCC condensation of a small
/// dense-id graph — the coordinator core behind BoundaryReachIndex, whose
/// glued graphs serve reach and, one per automaton, regular reachability.
///
/// Per component the label keeps the DFS-tree interval [tin, tout) for
/// certain POSITIVES (v inside u's DFS subtree) and kNumLabelings post-order
/// interval labels for certain NEGATIVES (interval containment is necessary
/// for reachability; Seufert et al.: compact labels over a REDUCED graph
/// answer reachability in near-constant time). Lookups neither label decides
/// fall back to a label-pruned DFS over the condensation (scalar ReachesAny)
/// or enter one shared 64-lane BitsetSweep (batched ReachesAnyWord), so
/// every answer is exact. `label_hits` / `dfs_fallbacks` / `batch_words` /
/// `sweep_count` / `sweep_depth` stay observable.
///
/// Thread-safety: none — lookups mutate versioned scratch, so a single
/// instance must never be shared across concurrent dispatchers. Each owning
/// index embeds its own instance (its own scratch); the engine-per-
/// dispatcher discipline provides the exclusion, and a debug-build guard
/// aborts on concurrent Build/lookup entry so a future batch path cannot
/// silently race.
class ReachLabels {
 public:
  ReachLabels() = default;

  /// Condenses the edge list over `num_nodes` dense ids and rebuilds the
  /// labels from scratch. May be called repeatedly; each call is a full
  /// rebuild. Edge endpoints must be < num_nodes.
  void Build(size_t num_nodes,
             const std::vector<std::pair<uint32_t, uint32_t>>& edges);

  /// Component of a dense node id (valid after Build).
  uint32_t comp_of(uint32_t node) const {
    PEREACH_CHECK_LT(node, component_of_.size());
    return component_of_[node];
  }

  /// True iff ANY source reaches ANY target (reflexive; duplicate entries
  /// are fine), nodes given by dense id. One label pass over the source x
  /// target component pairs, then at most one multi-source label-pruned DFS.
  bool ReachesAny(std::span<const uint32_t> sources,
                  std::span<const uint32_t> targets);

  /// Answers up to 64 questions in one word: bit i of the result is exactly
  /// ReachesAny(questions[i]). Per lane, the same label pass as the scalar
  /// path decides certain positives/negatives; every lane the labels leave
  /// undecided is seeded into ONE shared BitsetSweep, so a word costs one
  /// propagation pass instead of up to 64 pruned DFSes.
  uint64_t ReachesAnyWord(std::span<const WordQuestion> questions);

  // --- observability -------------------------------------------------------
  size_t num_nodes() const { return component_of_.size(); }
  size_t num_components() const { return num_comps_; }
  /// Deduplicated condensation edges.
  size_t num_edges() const { return adj_targets_.size(); }
  /// Lookups (scalar calls, or word lanes) decided by labels alone vs
  /// scalar lookups that needed the pruned-DFS fallback.
  size_t label_hits() const { return label_hits_; }
  size_t dfs_fallbacks() const { return dfs_fallbacks_; }
  /// ReachesAnyWord calls, words that needed a sweep, lanes answered by
  /// sweeps, and cumulative sweep expansions (the depth measure).
  size_t batch_words() const { return batch_words_; }
  size_t sweep_count() const { return sweep_count_; }
  size_t sweep_lanes() const { return sweep_lanes_; }
  size_t sweep_depth() const { return sweep_depth_; }

  /// Rough resident size of the rebuilt structure, bytes.
  size_t ByteSize() const;

 private:
  // Two deterministic labelings: natural and reversed child order. Distinct
  // DFS orders disagree on non-tree descendants, so their intersection
  // rejects most unreachable pairs (GRAIL's k-interval argument).
  static constexpr size_t kNumLabelings = 2;

  struct CompLabel {
    // DFS-tree interval: v certainly reachable when tin_[v] in [tin, tout).
    uint32_t tin = 0;
    uint32_t tout = 0;
    // Post-order interval per labeling: [low, post]. Containment of v's
    // interval in u's is necessary for u to reach v.
    uint32_t low[kNumLabelings] = {0, 0};
    uint32_t post[kNumLabelings] = {0, 0};
  };

  /// Label-only verdict for components cu -> cv: 1 = certainly reaches,
  /// 0 = certainly not, -1 = undecided (DFS needed).
  int LabelVerdict(uint32_t cu, uint32_t cv) const;
  bool LabelContains(uint32_t cu, uint32_t cv) const;

  /// Dedupes `nodes` to sorted component ids in `out`.
  void CollectComponents(std::span<const uint32_t> nodes,
                         std::vector<uint32_t>* out) const;

  std::vector<uint32_t> component_of_;  // dense node -> component
  size_t num_comps_ = 0;
  // Condensation adjacency, CSR. Component ids are Tarjan reverse
  // topological: every edge goes from a higher id to a lower one.
  std::vector<size_t> adj_offsets_;
  std::vector<uint32_t> adj_targets_;
  std::vector<CompLabel> labels_;

  // Scratch for the DFS fallback, sized num_comps_ and versioned so calls
  // don't re-clear it.
  std::vector<uint32_t> visit_mark_;
  std::vector<uint32_t> dfs_stack_;
  uint32_t visit_version_ = 0;

  // Scratch for the batched word path: per-lane component dedup plus the
  // shared 64-lane sweep engine. Per instance, like every other scratch —
  // that is what makes one-index-per-dispatcher race-free.
  std::vector<uint32_t> word_src_;
  std::vector<uint32_t> word_tgt_;
  std::vector<uint32_t> word_pending_;
  BitsetSweep sweep_;

  size_t label_hits_ = 0;
  size_t dfs_fallbacks_ = 0;
  size_t batch_words_ = 0;
  size_t sweep_count_ = 0;
  size_t sweep_lanes_ = 0;
  size_t sweep_depth_ = 0;

  // Debug reentrancy guard (src/util/sync.h): Build and every lookup hold
  // a ScopedExclusiveUse for their whole duration, so two dispatchers
  // sharing one instance abort loudly instead of corrupting the versioned
  // scratch. Compiles away under NDEBUG.
  ExclusiveUseToken exclusive_use_;

  PEREACH_DISALLOW_COPY_AND_ASSIGN(ReachLabels);
};

}  // namespace pereach

#endif  // PEREACH_INDEX_REACH_LABELS_H_
