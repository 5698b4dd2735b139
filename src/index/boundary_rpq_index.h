#ifndef PEREACH_INDEX_BOUNDARY_RPQ_INDEX_H_
#define PEREACH_INDEX_BOUNDARY_RPQ_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/index/boundary_index.h"
#include "src/regex/canonical.h"
#include "src/util/common.h"
#include "src/util/sync.h"

namespace pereach {

/// Coordinator-side index for regular-path queries: one BoundaryReachIndex
/// per distinct query automaton (canonical signature), built over the
/// fragments' PRODUCT condensations (FragmentContext::RpqProduct::cond)
/// instead of their local condensations. Rows are keyed by
/// PackNodeState(global id, state), so each virtual pair (w, q) is glued to
/// the real pair (w, q) at w's owner, exactly like reach's virtual nodes.
/// Every local node carries u_s and u_t in its product, so a query's whole
/// site-side contribution is reach's frame — comp(s, u_s) and comp(t, u_t) —
/// and (s, u_s) reaches (t, u_t) in the glued graph iff the query holds
/// (DESIGN.md §9).
///
/// Entries are kept behind a signature-keyed LRU cache with a configurable
/// cap (serving workloads repeat regexes heavily; cf. Seufert et al. on
/// keeping standing indexes small under size restrictions). Eviction never
/// affects correctness — a re-miss rebuilds the entry from one refresh
/// round — and entries touched by the in-flight batch are pinned.
///
/// Incremental maintenance mirrors the reach index: the owner marks
/// fragments dirty in EVERY cached entry on the InvalidateFragment path and
/// re-fetches only the dirty fragments' rows per touched entry.
/// Thread-safety: none; the engine's single-dispatcher discipline provides
/// the exclusion, and a debug-build ScopedExclusiveUse on every LRU entry
/// point (BeginBatch / GetEntry / Invalidate*) aborts deterministically if
/// two threads ever overlap inside the cache (DESIGN.md §12).
class BoundaryRpqIndex {
 public:
  /// `max_entries` caps the LRU cache (clamped to >= 1).
  BoundaryRpqIndex(size_t num_fragments, size_t max_entries);

  /// Marks the start of a batch: entries returned by GetEntry from here on
  /// are pinned against eviction until the next BeginBatch (an over-cap
  /// batch may temporarily exceed max_entries rather than invalidate a
  /// pointer the caller still holds; the overshoot is trimmed back here
  /// once nothing is pinned).
  void BeginBatch();

  /// The entry for `sig`, created on a miss — possibly evicting the least
  /// recently used unpinned entry when the cache is at capacity. The
  /// returned reference stays valid until the next BeginBatch.
  BoundaryReachIndex& GetEntry(const AutomatonSignature& sig);

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
  struct Slot {
    std::unique_ptr<BoundaryReachIndex> index;
    uint64_t last_used = 0;  // LRU tick
  };

  /// Evicts the least recently used entry whose last use predates the
  /// current batch; returns false when every entry is pinned.
  bool EvictLru();

  size_t num_fragments_;
  size_t max_entries_;
  std::unordered_map<std::string, Slot> entries_;  // by signature key
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
