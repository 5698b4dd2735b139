#include "src/index/boundary_rpq_index.h"

#include <algorithm>
#include <array>

#include "src/regex/query_automaton.h"
#include "src/util/logging.h"

namespace pereach {

// ---------------------------------------------------------------------------
// ProductBoundaryRows wire format

size_t ProductBoundaryRows::TableSize() const {
  size_t n = 0;
  for (uint64_t m : oset_masks) {
    n += static_cast<size_t>(__builtin_popcountll(m));
  }
  return n;
}

void ProductBoundaryRows::Serialize(Encoder* enc) const {
  PEREACH_CHECK_EQ(oset_globals.size(), oset_masks.size());
  enc->PutVarint(oset_globals.size());
  for (size_t j = 0; j < oset_globals.size(); ++j) {
    enc->PutVarint(oset_globals[j]);
    enc->PutU64(oset_masks[j]);
  }
  PEREACH_CHECK_EQ(rep_pairs.size(), rows.size());
  enc->PutVarint(rep_pairs.size());
  for (size_t g = 0; g < rep_pairs.size(); ++g) {
    enc->PutVarint(rep_pairs[g].node);
    enc->PutU8(rep_pairs[g].state);
    enc->PutVarint(rows[g].size());
    // Ascending table indices: delta-encode, same trick as BoundaryRows.
    uint32_t prev = 0;
    for (uint32_t idx : rows[g]) {
      enc->PutVarint(idx - prev);
      prev = idx;
    }
  }
  enc->PutVarint(aliases.size());
  for (const auto& [member, group] : aliases) {
    enc->PutVarint(member.node);
    enc->PutU8(member.state);
    enc->PutVarint(group);
  }
}

ProductBoundaryRows ProductBoundaryRows::Deserialize(Decoder* dec) {
  ProductBoundaryRows out;
  const size_t num_oset = dec->GetCount(9);
  out.oset_globals.resize(num_oset);
  out.oset_masks.resize(num_oset);
  for (size_t j = 0; j < num_oset; ++j) {
    out.oset_globals[j] = static_cast<NodeId>(dec->GetVarint());
    out.oset_masks[j] = dec->GetU64();
    // u_s never appears in a compatibility mask (it has no in-transitions
    // and matches no label); a set bit 0 marks a corrupt payload.
    if (!dec->Require((out.oset_masks[j] & 1) == 0,
                      "product rows: start state in a compatibility mask")) {
      return out;
    }
  }
  const size_t table_size = out.TableSize();
  const size_t groups = dec->GetCount(2);
  out.rep_pairs.resize(groups);
  out.rows.resize(groups);
  for (size_t g = 0; g < groups; ++g) {
    out.rep_pairs[g].node = static_cast<NodeId>(dec->GetVarint());
    out.rep_pairs[g].state = dec->GetU8();
    if (!dec->Require(out.rep_pairs[g].state < QueryAutomaton::kMaxStates,
                      "product rows: rep state out of range")) {
      return out;
    }
    out.rows[g].resize(dec->GetCount());
    uint32_t prev = 0;
    for (uint32_t& idx : out.rows[g]) {
      prev += static_cast<uint32_t>(dec->GetVarint());
      idx = prev;
      if (!dec->Require(idx < table_size,
                        "product rows: table index out of range")) {
        return out;
      }
    }
  }
  out.aliases.resize(dec->GetCount(3));
  for (auto& [member, group] : out.aliases) {
    member.node = static_cast<NodeId>(dec->GetVarint());
    member.state = dec->GetU8();
    group = static_cast<uint32_t>(dec->GetVarint());
    if (!dec->Require(member.state < QueryAutomaton::kMaxStates,
                      "product rows: alias state out of range") ||
        !dec->Require(group < groups, "product rows: alias to no group")) {
      return out;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// BoundaryRpqIndex::Entry

BoundaryRpqIndex::Entry::Entry(size_t num_fragments, size_t shortcut_budget)
    : num_fragments_(num_fragments),
      shortcut_budget_(shortcut_budget),
      fragment_rows_(num_fragments),
      site_table_(num_fragments),
      have_rows_(num_fragments, false),
      dirty_(num_fragments, true) {}

void BoundaryRpqIndex::Entry::SetFragmentRows(SiteId site,
                                              ProductBoundaryRows rows) {
  PEREACH_CHECK_LT(site, num_fragments_);
  // Flatten the (oset entry, state) pairs in ascending (entry, state) order;
  // rows and sweep frames reference pairs by index into this table.
  std::vector<ProductPair>& table = site_table_[site];
  table.clear();
  table.reserve(rows.TableSize());
  for (size_t j = 0; j < rows.oset_globals.size(); ++j) {
    uint64_t mask = rows.oset_masks[j];
    while (mask != 0) {
      const uint32_t q = static_cast<uint32_t>(__builtin_ctzll(mask));
      mask &= mask - 1;
      table.push_back({rows.oset_globals[j], static_cast<uint8_t>(q)});
    }
  }
  fragment_rows_[site] = std::move(rows);
  have_rows_[site] = true;
  dirty_[site] = false;
  stale_ = true;
}

std::vector<SiteId> BoundaryRpqIndex::Entry::DirtySites() const {
  std::vector<SiteId> out;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    if (dirty_[s]) out.push_back(s);
  }
  return out;
}

void BoundaryRpqIndex::Entry::Ensure() {
  if (!stale_) return;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    PEREACH_CHECK(have_rows_[s] && !dirty_[s] &&
                  "Ensure with dirty fragments: refresh their rows first");
  }

  // Intern the product-pair universe. Every interior frontier pair (w, q')
  // is an in-pair of w's owner fragment (same label, hence same compatible
  // states), so reps and alias members cover those; the accept pairs
  // (w, u_t) exist only in the tables, so the whole table is interned too —
  // that also keeps every possible sweep exit resolvable.
  dense_of_.clear();
  auto intern = [this](ProductPair p) {
    return dense_of_
        .emplace(PackPair(p), static_cast<uint32_t>(dense_of_.size()))
        .first->second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const ProductBoundaryRows& fr = fragment_rows_[s];
    const std::vector<ProductPair>& table = site_table_[s];
    for (const ProductPair& p : table) intern(p);
    for (size_t g = 0; g < fr.rep_pairs.size(); ++g) {
      const uint32_t rep = intern(fr.rep_pairs[g]);
      for (uint32_t idx : fr.rows[g]) {
        edges.emplace_back(rep, intern(table[idx]));
      }
    }
    // An alias member reaches its group representative inside the
    // fragment's product (same product SCC), so a single member -> rep edge
    // stands in for the member's whole row.
    for (const auto& [member, group] : fr.aliases) {
      edges.emplace_back(intern(member), intern(fr.rep_pairs[group]));
    }
  }

  labels_.Build(dense_of_.size(), edges, shortcut_budget_);
  stale_ = false;
  ++rebuild_count_;
}

ProductPair BoundaryRpqIndex::Entry::TablePair(SiteId site,
                                               uint32_t index) const {
  PEREACH_CHECK_LT(site, num_fragments_);
  PEREACH_CHECK(have_rows_[site] && !dirty_[site]);
  PEREACH_CHECK_LT(index, site_table_[site].size());
  return site_table_[site][index];
}

size_t BoundaryRpqIndex::Entry::TableSize(SiteId site) const {
  PEREACH_CHECK_LT(site, num_fragments_);
  PEREACH_CHECK(have_rows_[site] && !dirty_[site]);
  return site_table_[site].size();
}

bool BoundaryRpqIndex::Entry::HasPair(ProductPair p) const {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  return dense_of_.find(PackPair(p)) != dense_of_.end();
}

uint32_t BoundaryRpqIndex::Entry::DenseOf(ProductPair p) const {
  const auto it = dense_of_.find(PackPair(p));
  PEREACH_CHECK(it != dense_of_.end() &&
                "pair is not a product boundary node of this epoch");
  return it->second;
}

bool BoundaryRpqIndex::Entry::ReachesAny(
    std::span<const ProductPair> sources,
    std::span<const ProductPair> targets) {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  if (sources.empty() || targets.empty()) return false;
  std::vector<uint32_t> src;
  src.reserve(sources.size());
  for (ProductPair p : sources) src.push_back(DenseOf(p));
  std::vector<uint32_t> tgt;
  tgt.reserve(targets.size());
  for (ProductPair p : targets) tgt.push_back(DenseOf(p));
  return labels_.ReachesAny(src, tgt);
}

void BoundaryRpqIndex::Entry::AnswerBatch(
    std::span<const RpqQuestion> questions, std::vector<uint8_t>* answers) {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  answers->assign(questions.size(), 0);
  for (size_t base = 0; base < questions.size();
       base += BitsetSweep::kLanes) {
    const size_t lanes =
        std::min(BitsetSweep::kLanes, questions.size() - base);
    size_t total = 0;
    for (size_t li = 0; li < lanes; ++li) {
      total += questions[base + li].sources.size() +
               questions[base + li].targets.size();
    }
    // Flat dense-id storage; spans built only after the fill so growth
    // can't invalidate them.
    batch_nodes_.clear();
    batch_nodes_.reserve(total);
    batch_word_.clear();
    batch_word_.resize(lanes);
    // Per-lane {s_off, s_len, t_off, t_len} into the flat dense-id array.
    std::vector<std::array<size_t, 4>> extents(lanes);
    for (size_t li = 0; li < lanes; ++li) {
      const RpqQuestion& q = questions[base + li];
      extents[li][0] = batch_nodes_.size();
      for (const ProductPair p : q.sources) batch_nodes_.push_back(DenseOf(p));
      extents[li][1] = q.sources.size();
      extents[li][2] = batch_nodes_.size();
      for (const ProductPair p : q.targets) batch_nodes_.push_back(DenseOf(p));
      extents[li][3] = q.targets.size();
    }
    for (size_t li = 0; li < lanes; ++li) {
      batch_word_[li].sources =
          std::span<const uint32_t>(batch_nodes_).subspan(extents[li][0],
                                                          extents[li][1]);
      batch_word_[li].targets =
          std::span<const uint32_t>(batch_nodes_).subspan(extents[li][2],
                                                          extents[li][3]);
    }
    const uint64_t word = labels_.ReachesAnyWord(batch_word_);
    for (size_t li = 0; li < lanes; ++li) {
      (*answers)[base + li] = static_cast<uint8_t>((word >> li) & 1);
    }
  }
}

size_t BoundaryRpqIndex::Entry::ByteSize() const {
  size_t bytes = dense_of_.size() * (sizeof(uint64_t) + sizeof(uint32_t)) +
                 labels_.ByteSize();
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const ProductBoundaryRows& fr = fragment_rows_[s];
    bytes += fr.oset_globals.size() * (sizeof(NodeId) + sizeof(uint64_t)) +
             fr.rep_pairs.size() * sizeof(ProductPair) +
             fr.aliases.size() * sizeof(fr.aliases[0]) +
             site_table_[s].size() * sizeof(ProductPair);
    for (const auto& row : fr.rows) bytes += row.size() * sizeof(uint32_t);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// BoundaryRpqIndex (the signature-keyed LRU of entries)

BoundaryRpqIndex::BoundaryRpqIndex(size_t num_fragments, size_t max_entries,
                                   size_t shortcut_budget)
    : num_fragments_(num_fragments),
      max_entries_(std::max<size_t>(1, max_entries)),
      shortcut_budget_(shortcut_budget) {}

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
    if (e->second->last_used_ >= batch_start_tick_) continue;  // pinned
    if (victim == entries_.end() ||
        e->second->last_used_ < victim->second->last_used_) {
      victim = e;
    }
  }
  if (victim == entries_.end()) return false;
  retired_rebuilds_ += victim->second->rebuild_count_;
  entries_.erase(victim);
  ++evictions_;
  return true;
}

BoundaryRpqIndex::Entry& BoundaryRpqIndex::GetEntry(
    const AutomatonSignature& sig) {
  ScopedExclusiveUse guard(&exclusive_use_);
  const auto it = entries_.find(sig.key);
  if (it != entries_.end()) {
    ++hits_;
    it->second->last_used_ = ++tick_;
    return *it->second;
  }
  ++misses_;
  if (entries_.size() >= max_entries_) {
    // Evict the least recently used entry not pinned by the in-flight batch.
    // A batch with more distinct automata than the cap grows past it for
    // the batch's duration instead of invalidating a live reference.
    EvictLru();
  }
  auto entry =
      std::unique_ptr<Entry>(new Entry(num_fragments_, shortcut_budget_));
  entry->last_used_ = ++tick_;
  return *entries_.emplace(sig.key, std::move(entry)).first->second;
}

void BoundaryRpqIndex::InvalidateFragment(SiteId site) {
  ScopedExclusiveUse guard(&exclusive_use_);
  PEREACH_CHECK_LT(site, num_fragments_);
  for (auto& [key, entry] : entries_) {
    entry->dirty_[site] = true;
    entry->stale_ = true;
  }
}

void BoundaryRpqIndex::InvalidateAll() {
  ScopedExclusiveUse guard(&exclusive_use_);
  for (auto& [key, entry] : entries_) {
    entry->dirty_.assign(num_fragments_, true);
    entry->stale_ = true;
  }
}

size_t BoundaryRpqIndex::total_rebuilds() const {
  size_t total = retired_rebuilds_;
  for (const auto& [key, entry] : entries_) total += entry->rebuild_count_;
  return total;
}

size_t BoundaryRpqIndex::ByteSize() const {
  size_t bytes = 0;
  for (const auto& [key, entry] : entries_) {
    bytes += key.size() + entry->ByteSize();
  }
  return bytes;
}

}  // namespace pereach
