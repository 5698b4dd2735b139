#ifndef PEREACH_ENGINE_FRAGMENT_CONTEXT_H_
#define PEREACH_ENGINE_FRAGMENT_CONTEXT_H_

#include <atomic>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/local_eval.h"
#include "src/fragment/fragmentation.h"
#include "src/graph/algorithms.h"
#include "src/index/boundary_index.h"
#include "src/regex/query_automaton.h"
#include "src/util/common.h"

namespace pereach {

/// Query-independent precomputed structure of one fragment, built once and
/// reused by every query of every class (§8 "combine partial evaluation and
/// incremental computation", generalized to a standing cache):
///  - the SCC condensation of the local graph (reach, all equation forms);
///  - the boundary tables: virtual-node oset with global ids and a
///    global -> oset-index map (all classes);
///  - the closure rows: per in-node SCC group, the set of oset indices the
///    group reaches locally — the whole query-independent part of localEval,
///    leaving only O(|cond|) per-query work for s and t;
///  - the label index (regular reachability compatibility masks);
///  - the rpq products: per CANONICAL AUTOMATON (signature-keyed, LRU
///    capped), the fragment's label-compatible product graph and its
///    condensation — the query-independent part of localEvalr, glued at the
///    coordinator into one BoundaryReachIndex per automaton
///    (BoundaryRpqIndex).
/// Sections build lazily so workloads only pay for what they touch.
///
/// Thread-safety: one FragmentContext may be used by one thread at a time.
/// The engine's cluster rounds satisfy this — each site is simulated by a
/// single pool thread per round.
class FragmentContext {
 public:
  static constexpr uint32_t kNoIndex = std::numeric_limits<uint32_t>::max();

  /// Closure-form boundary equations over in-node SCC groups.
  struct ReachRows {
    std::vector<uint32_t> in_group;   // per f.in_nodes() position -> group
    std::vector<NodeId> group_rep;    // group -> local id of its first in-node
    std::vector<uint32_t> group_comp; // group -> condensation component
    std::vector<std::vector<uint32_t>> rows;  // group -> ascending oset idx
  };

  /// Default LRU cap for the per-automaton rpq products (matches
  /// PartialEvalOptions::rpq_cache_entries).
  static constexpr size_t kDefaultRpqCacheCap = 8;

  /// Query-independent product structure of this fragment for ONE
  /// canonical automaton (regular reachability, §5): the label-compatible
  /// product F_i x G_q and its SCC condensation. A node's states are the
  /// interior states matching its label plus u_t — any node may be some
  /// query's target — and, at local nodes, u_s — any local node may be some
  /// query's source (see DESIGN.md §9). A query's whole site-side work is
  /// then two lookups: comp(s, u_s) and comp(t, u_t).
  struct RpqProduct {
    explicit RpqProduct(QueryAutomaton a) : automaton(std::move(a)) {}

    QueryAutomaton automaton;  // canonical form (language-equal to queries')
    std::vector<uint64_t> compat;      // per local-graph node: state mask
    std::vector<uint64_t> pid_offset;  // per node: first product id (n + 1)
    Condensation cond;                 // product-graph condensation

    /// Dense product id of (v, q); q must be set in compat[v].
    NodeId pid(NodeId v, uint32_t q) const {
      const uint64_t below = compat[v] & ((uint64_t{1} << q) - 1);
      return static_cast<NodeId>(
          pid_offset[v] +
          static_cast<uint64_t>(__builtin_popcountll(below)));
    }
    uint32_t CompOfPair(NodeId v, uint32_t q) const {
      return cond.scc.component_of[pid(v, q)];
    }
  };

  explicit FragmentContext(size_t rpq_cache_cap = kDefaultRpqCacheCap)
      : rpq_cache_cap_(rpq_cache_cap < 1 ? 1 : rpq_cache_cap) {}

  /// SCC condensation of f.local_graph().
  const Condensation& cond(const Fragment& f);

  /// Virtual nodes (local ids, ascending) and their global ids.
  const std::vector<NodeId>& oset_locals(const Fragment& f);
  const std::vector<NodeId>& oset_globals(const Fragment& f);

  /// Condensation component of each oset entry. Implies cond().
  const std::vector<uint32_t>& oset_comp(const Fragment& f);

  /// Oset index of a global id, or kNoIndex if it is not a virtual node of
  /// this fragment. Valid once any oset accessor ran.
  uint32_t OsetIndexOf(NodeId global) const;

  const ReachRows& reach_rows(const Fragment& f);

  /// The dist refresh round's rows: the local graph itself, each node its
  /// own component (node v is component v), successors ascending and
  /// deduplicated, keyed by global id. Built on each call, not cached: a
  /// fragment ships them once per dirty epoch (BoundaryDistIndex).
  BoundaryRows dist_rows(const Fragment& f);

  const LabelIndex& label_index(const Fragment& f);

  /// Marks the start of one round's work at this fragment: products
  /// touched from here on are pinned against LRU eviction until the next
  /// call, so a round cycling through more distinct automata than the cap
  /// builds each at most once (temporarily overshooting the cap) instead
  /// of thrashing per query — the same pinning discipline as the
  /// coordinator's BoundaryRpqIndex. Trims a previous round's overshoot.
  void BeginRpqRound();

  /// The cached product structure for the canonical automaton behind
  /// `signature_key`, building it (one product condensation) on a miss. The
  /// cache holds at most `rpq_cache_cap` distinct automata, LRU-evicted;
  /// rebuilding after an eviction is deterministic, so rows re-fetched by
  /// the coordinator always match the sweeps.
  const RpqProduct& rpq_product(const Fragment& f,
                                const std::string& signature_key,
                                const QueryAutomaton& canonical);

  /// Live per-automaton product entries (observability).
  size_t rpq_cache_size() const { return rpq_products_.size(); }
  size_t rpq_cache_evictions() const { return rpq_evictions_; }

  /// Number of section builds performed (observability for tests/benches:
  /// a warm cache answers whole batches with zero additional builds; each
  /// rpq product construction counts as one build).
  size_t section_builds() const { return section_builds_; }

 private:
  struct RpqCacheSlot {
    std::unique_ptr<RpqProduct> product;
    uint64_t last_used = 0;
  };

  void EnsureOset(const Fragment& f);

  std::optional<Condensation> cond_;
  bool oset_built_ = false;
  std::vector<NodeId> oset_locals_;
  std::vector<NodeId> oset_globals_;
  std::unordered_map<NodeId, uint32_t> oset_index_;
  std::vector<uint32_t> oset_comp_;  // built with cond on demand
  std::optional<ReachRows> rows_;
  std::optional<LabelIndex> label_index_;
  /// Evicts the least recently used product not touched since the last
  /// BeginRpqRound; returns false when every slot is pinned.
  bool EvictRpqLru();

  size_t rpq_cache_cap_;
  std::unordered_map<std::string, RpqCacheSlot> rpq_products_;
  uint64_t rpq_tick_ = 0;
  uint64_t rpq_round_start_tick_ = 0;
  size_t rpq_evictions_ = 0;
  size_t section_builds_ = 0;
};

/// One FragmentContext per site of a fragmentation, built on first use and
/// explicitly invalidated when an edge update changes a fragment (wired to
/// IncrementalReachIndex::SetUpdateListener). Distinct sites may be accessed
/// concurrently (each site from at most one thread, the cluster-round
/// discipline); invalidation must not race with an in-flight round.
class FragmentContextCache {
 public:
  explicit FragmentContextCache(
      const Fragmentation* fragmentation,
      size_t rpq_cache_cap = FragmentContext::kDefaultRpqCacheCap)
      : rpq_cache_cap_(rpq_cache_cap),
        contexts_(fragmentation->num_fragments()) {}

  FragmentContext& Get(SiteId site) {
    PEREACH_CHECK_LT(site, contexts_.size());
    if (contexts_[site] == nullptr) {
      contexts_[site] = std::make_unique<FragmentContext>(rpq_cache_cap_);
      builds_.fetch_add(1, std::memory_order_relaxed);
    }
    return *contexts_[site];
  }

  /// Drops the cached context of `site`; the next query rebuilds it.
  void Invalidate(SiteId site) {
    PEREACH_CHECK_LT(site, contexts_.size());
    contexts_[site] = nullptr;
  }

  void InvalidateAll() {
    for (auto& ctx : contexts_) ctx = nullptr;
  }

  /// Number of context constructions since creation — cold starts plus
  /// rebuilds after invalidation.
  size_t build_count() const {
    return builds_.load(std::memory_order_relaxed);
  }

 private:
  size_t rpq_cache_cap_;
  std::vector<std::unique_ptr<FragmentContext>> contexts_;
  std::atomic<size_t> builds_{0};
};

}  // namespace pereach

#endif  // PEREACH_ENGINE_FRAGMENT_CONTEXT_H_
