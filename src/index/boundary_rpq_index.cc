#include "src/index/boundary_rpq_index.h"

#include <algorithm>
#include <utility>

#include "src/util/logging.h"

namespace pereach {

BoundaryRpqIndex::BoundaryRpqIndex(size_t num_fragments, size_t max_entries)
    : num_fragments_(num_fragments),
      max_entries_(std::max<size_t>(1, max_entries)) {}

void BoundaryRpqIndex::BeginBatch() {
  ScopedExclusiveUse guard(&exclusive_use_);
  batch_start_tick_ = tick_ + 1;
  // A previous over-cap batch pinned more entries than the cap; nothing is
  // pinned anymore, so trim the overshoot by recency.
  while (entries_.size() > max_entries_ && EvictLru()) {
  }
}

bool BoundaryRpqIndex::EvictLru() {
  auto victim = entries_.end();
  for (auto e = entries_.begin(); e != entries_.end(); ++e) {
    if (e->second.last_used >= batch_start_tick_) continue;  // pinned
    if (victim == entries_.end() ||
        e->second.last_used < victim->second.last_used) {
      victim = e;
    }
  }
  if (victim == entries_.end()) return false;
  retired_rebuilds_ += victim->second.index->rebuild_count();
  entries_.erase(victim);
  ++evictions_;
  return true;
}

BoundaryReachIndex& BoundaryRpqIndex::GetEntry(const AutomatonSignature& sig) {
  ScopedExclusiveUse guard(&exclusive_use_);
  const auto it = entries_.find(sig.key);
  if (it != entries_.end()) {
    ++hits_;
    it->second.last_used = ++tick_;
    return *it->second.index;
  }
  ++misses_;
  if (entries_.size() >= max_entries_) {
    // Evict the least recently used entry not pinned by the in-flight batch.
    // A batch with more distinct automata than the cap grows past it for
    // the batch's duration instead of invalidating a live reference.
    EvictLru();
  }
  Slot slot;
  slot.index = std::make_unique<BoundaryReachIndex>(num_fragments_);
  slot.last_used = ++tick_;
  return *entries_.emplace(sig.key, std::move(slot)).first->second.index;
}

void BoundaryRpqIndex::InvalidateFragment(SiteId site) {
  ScopedExclusiveUse guard(&exclusive_use_);
  PEREACH_CHECK_LT(site, num_fragments_);
  for (auto& [key, slot] : entries_) slot.index->InvalidateFragment(site);
}

void BoundaryRpqIndex::InvalidateAll() {
  ScopedExclusiveUse guard(&exclusive_use_);
  for (auto& [key, slot] : entries_) slot.index->InvalidateAll();
}

size_t BoundaryRpqIndex::total_rebuilds() const {
  size_t total = retired_rebuilds_;
  for (const auto& [key, slot] : entries_) {
    total += slot.index->rebuild_count();
  }
  return total;
}

size_t BoundaryRpqIndex::ByteSize() const {
  size_t bytes = 0;
  for (const auto& [key, slot] : entries_) {
    bytes += key.size() + slot.index->ByteSize();
  }
  return bytes;
}

}  // namespace pereach
