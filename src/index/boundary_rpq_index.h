#ifndef PEREACH_INDEX_BOUNDARY_RPQ_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_RPQ_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/index/reach_labels.h"
#include "src/regex/canonical.h"
#include "src/util/common.h"
#include "src/util/serialization.h"

namespace pereach {

/// One node of a product boundary graph: a boundary node of the
/// fragmentation paired with an automaton state of the entry's canonical
/// automaton. States fit in 6 bits (QueryAutomaton::kMaxStates == 64).
struct ProductPair {
  NodeId node = kInvalidNode;
  uint8_t state = 0;

  friend bool operator==(const ProductPair&, const ProductPair&) = default;
};

/// Query-independent PRODUCT boundary rows of ONE fragment for ONE canonical
/// automaton, as shipped to the coordinator by the rpq-index refresh round —
/// the regular-reachability twin of the closure rows. A re-encoding of
/// FragmentContext::RpqProduct with local ids resolved to globals:
///  - `oset_globals` is the fragment's virtual-node table (ascending local
///    order, the same table the reach index ships) and `oset_masks[j]` the
///    automaton states compatible with entry j: the interior states matching
///    its label PLUS u_t — any virtual node may be some query's target, and
///    the hop that accepts into it is automaton-static (see DESIGN.md §9).
///    Flattening the (entry, state) pairs in ascending (j, state) order
///    yields the fragment's PAIR TABLE; rows and sweep frames reference
///    pairs by flattened index;
///  - one row per in-pair PRODUCT-SCC GROUP: the group representative pair
///    (global id, state) plus the ascending table indices of the pairs the
///    group reaches in the fragment's product graph;
///  - one alias per non-representative in-pair, binding it to its group
///    (same product SCC, hence boundary-equivalent).
struct ProductBoundaryRows {
  std::vector<NodeId> oset_globals;
  std::vector<uint64_t> oset_masks;         // per entry: interior | u_t bit
  std::vector<ProductPair> rep_pairs;       // one per group
  std::vector<std::vector<uint32_t>> rows;  // group -> ascending table idx
  // (member pair, group index) for every in-pair that is not its group rep.
  std::vector<std::pair<ProductPair, uint32_t>> aliases;

  /// Number of flattened pair-table entries (sum of mask popcounts).
  size_t TableSize() const;

  void Serialize(Encoder* enc) const;
  static ProductBoundaryRows Deserialize(Decoder* dec);
};

/// Coordinator-side reachability index over PRODUCT BOUNDARY GRAPHS — the
/// piece that makes regular-path queries as fast as reach/dist: one standing
/// graph per distinct query automaton (canonical signature), whose nodes are
/// (boundary node, automaton state) pairs and whose edges (v,q) -> (w,q')
/// assert that v's fragment can route a local path from v to its virtual
/// copy of w while driving the automaton from q to q'. The edges are exactly
/// the product closure rows the fragments cache query-independently
/// (FragmentContext::RpqProduct), so a path in this graph composes
/// label-compatible fragment-local path segments — reachability from the
/// query's s-side exit pairs to its t-side accepting entries in this graph
/// is regular reachability in G, with no per-query BES ever assembled.
/// Pairs (w, u_t) at virtual nodes are standing ACCEPT sinks: an edge into
/// one captures "this fragment can complete a match at its copy of w", so a
/// query for target t just adds (t, u_t) to its entry list.
///
/// Entries are kept behind a signature-keyed LRU cache with a configurable
/// cap (serving workloads repeat regexes heavily; cf. Seufert et al. on
/// keeping standing indexes small under size restrictions). Eviction never
/// affects correctness — a re-miss rebuilds the entry from one refresh
/// round — and entries touched by the in-flight batch are pinned.
///
/// Incremental maintenance mirrors the other boundary indexes: the owner
/// marks fragments dirty in EVERY cached entry on the InvalidateFragment
/// path, re-fetches only the dirty fragments' rows per touched entry, and
/// Entry::Ensure() rebuilds the small condensation + labels (ReachLabels).
/// Thread-safety: none; the engine's single-dispatcher discipline provides
/// the exclusion, and a debug-build ScopedExclusiveUse on every LRU entry
/// point (BeginBatch / GetEntry / Invalidate*) aborts deterministically if
/// two threads ever overlap inside the cache (DESIGN.md §12).
class BoundaryRpqIndex {
 public:
  /// One coordinator rpq question of a batch: does ANY source pair reach
  /// ANY target pair in this entry's product boundary graph? Spans must
  /// stay alive through AnswerBatch; empty sides answer false.
  struct RpqQuestion {
    std::span<const ProductPair> sources;
    std::span<const ProductPair> targets;
  };

  /// Standing product boundary graph of one canonical automaton.
  class Entry {
   public:
    /// Installs the product boundary rows of one fragment and clears its
    /// dirty bit.
    void SetFragmentRows(SiteId site, ProductBoundaryRows rows);

    /// Fragments whose rows must be re-fetched before Ensure() can run.
    std::vector<SiteId> DirtySites() const;
    bool dirty() const { return stale_; }

    /// Rebuilds the product boundary graph, condensation and labels from
    /// the cached per-fragment rows. Requires DirtySites() empty.
    /// Idempotent when clean.
    void Ensure();

    /// Pair at `index` of the fragment's flattened pair table — sweep
    /// frames reference exits by these indices.
    ProductPair TablePair(SiteId site, uint32_t index) const;
    size_t TableSize(SiteId site) const;

    /// True iff `p` is a node of the standing graph of this epoch. The
    /// query target's accept pair (t, u_t) exists iff some fragment holds a
    /// virtual copy of t; callers probe before listing it as an entry.
    bool HasPair(ProductPair p) const;

    /// True iff ANY source pair reaches ANY target pair (reflexive). All
    /// pairs must be standing nodes; CHECK-fails otherwise.
    bool ReachesAny(std::span<const ProductPair> sources,
                    std::span<const ProductPair> targets);

    /// Answers a whole batch, `(*answers)[i] = ReachesAny(questions[i])`,
    /// 64 questions per bit-parallel word (ReachLabels::ReachesAnyWord).
    /// Resizes `answers`.
    void AnswerBatch(std::span<const RpqQuestion> questions,
                     std::vector<uint8_t>* answers);

    // --- observability -----------------------------------------------------
    size_t num_product_nodes() const { return dense_of_.size(); }
    size_t num_components() const { return labels_.num_components(); }
    size_t num_edges() const { return labels_.num_edges(); }
    /// Full condensation + label rebuilds performed (dirty-epoch count —
    /// plus one per re-miss after an LRU eviction).
    size_t rebuild_count() const { return rebuild_count_; }
    size_t label_hits() const { return labels_.label_hits(); }
    size_t dfs_fallbacks() const { return labels_.dfs_fallbacks(); }
    /// Batch-path counters (see ReachLabels).
    size_t batch_words() const { return labels_.batch_words(); }
    size_t sweep_count() const { return labels_.sweep_count(); }
    size_t sweep_lanes() const { return labels_.sweep_lanes(); }
    size_t sweep_depth() const { return labels_.sweep_depth(); }
    size_t shortcut_count() const { return labels_.shortcut_count(); }
    size_t ByteSize() const;

   private:
    friend class BoundaryRpqIndex;
    Entry(size_t num_fragments, size_t shortcut_budget);

    static uint64_t PackPair(ProductPair p) {
      return (static_cast<uint64_t>(p.node) << 6) | p.state;
    }

    uint32_t DenseOf(ProductPair p) const;

    size_t num_fragments_;
    size_t shortcut_budget_;
    std::vector<ProductBoundaryRows> fragment_rows_;
    // Flattened pair table per site, built when rows are installed.
    std::vector<std::vector<ProductPair>> site_table_;
    std::vector<bool> have_rows_;
    std::vector<bool> dirty_;
    bool stale_ = true;  // condensation/labels out of date w.r.t. the rows

    // Rebuilt structure (valid while !stale_).
    std::unordered_map<uint64_t, uint32_t> dense_of_;  // packed pair -> dense
    ReachLabels labels_;

    // AnswerBatch scratch (flat dense-id storage + the word under assembly).
    std::vector<uint32_t> batch_nodes_;
    std::vector<WordQuestion> batch_word_;

    size_t rebuild_count_ = 0;
    uint64_t last_used_ = 0;  // LRU tick, maintained by the owner
  };

  /// `max_entries` caps the LRU cache (clamped to >= 1); `shortcut_budget`
  /// caps the transitive shortcut edges each entry's ReachLabels adds to its
  /// product condensation per rebuild (0 disables; answers are identical
  /// either way, only traversal depth changes).
  BoundaryRpqIndex(size_t num_fragments, size_t max_entries,
                   size_t shortcut_budget = 0);

  /// Marks the start of a batch: entries returned by GetEntry from here on
  /// are pinned against eviction until the next BeginBatch (an over-cap
  /// batch may temporarily exceed max_entries rather than invalidate a
  /// pointer the caller still holds; the overshoot is trimmed back here
  /// once nothing is pinned).
  void BeginBatch();

  /// The entry for `sig`, created on a miss — possibly evicting the least
  /// recently used unpinned entry when the cache is at capacity. The
  /// returned reference stays valid until the next BeginBatch.
  Entry& GetEntry(const AutomatonSignature& sig);

  /// Marks one fragment's rows stale in every cached entry.
  void InvalidateFragment(SiteId site);
  void InvalidateAll();

  // --- observability -------------------------------------------------------
  size_t num_entries() const { return entries_.size(); }
  size_t max_entries() const { return max_entries_; }
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }
  /// Ensure-rebuilds across live AND evicted entries.
  size_t total_rebuilds() const;
  /// Rough resident size across live entries, bytes.
  size_t ByteSize() const;

 private:
  /// Evicts the least recently used entry whose last use predates the
  /// current batch; returns false when every entry is pinned.
  bool EvictLru();

  size_t num_fragments_;
  size_t max_entries_;
  size_t shortcut_budget_;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;  // by key
  uint64_t tick_ = 0;
  uint64_t batch_start_tick_ = 0;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
  size_t retired_rebuilds_ = 0;  // rebuild counts of evicted entries
  // Debug guard for the single-dispatcher discipline (src/util/sync.h).
  ExclusiveUseToken exclusive_use_;
};

}  // namespace pereach

#endif  // PEREACH_INDEX_BOUNDARY_RPQ_INDEX_H_
