#include "src/index/boundary_dist_index.h"

#include <algorithm>
#include <queue>
#include <utility>

#include "src/util/logging.h"

namespace pereach {

// ---------------------------------------------------------------------------
// WeightedBoundaryRows wire format

void WeightedBoundaryRows::Serialize(Encoder* enc) const {
  enc->PutVarint(oset_globals.size());
  for (NodeId g : oset_globals) enc->PutVarint(g);
  PEREACH_CHECK_EQ(offsets.size(), in_globals.size() + 1);
  enc->PutVarint(in_globals.size());
  for (size_t i = 0; i < in_globals.size(); ++i) {
    enc->PutVarint(in_globals[i]);
    enc->PutVarint(offsets[i + 1] - offsets[i]);
  }
  // Per row, ascending oset indices: delta-encode the index, varint the hop
  // count (small on real partitions — most boundary hops are short).
  for (size_t i = 0; i < in_globals.size(); ++i) {
    uint32_t prev = 0;
    for (size_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      enc->PutVarint(targets[e] - prev);
      enc->PutVarint(hops[e]);
      prev = targets[e];
    }
  }
}

WeightedBoundaryRows WeightedBoundaryRows::Deserialize(Decoder* dec) {
  WeightedBoundaryRows out;
  out.oset_globals.resize(dec->GetCount());
  for (NodeId& g : out.oset_globals) g = static_cast<NodeId>(dec->GetVarint());
  out.in_globals.resize(dec->GetCount(2));
  out.offsets.reserve(out.in_globals.size() + 1);
  out.offsets.push_back(0);
  for (NodeId& in : out.in_globals) {
    in = static_cast<NodeId>(dec->GetVarint());
    out.offsets.push_back(out.offsets.back() + dec->GetCount(2));
  }
  // Every entry takes at least two bytes: check the rows fit before
  // allocating them.
  const size_t entries = out.offsets.back();
  if (!dec->Require(entries <= dec->remaining() / 2,
                    "weighted boundary rows: truncated rows")) {
    return out;
  }
  out.targets.resize(entries);
  out.hops.resize(entries);
  for (size_t i = 0; i < out.in_globals.size(); ++i) {
    uint32_t prev = 0;
    for (size_t e = out.offsets[i]; e < out.offsets[i + 1]; ++e) {
      prev += static_cast<uint32_t>(dec->GetVarint());
      out.hops[e] = static_cast<uint32_t>(dec->GetVarint());
      if (!dec->Require(prev < out.oset_globals.size(),
                        "weighted boundary rows: oset index out of range")) {
        return out;
      }
      out.targets[e] = prev;
    }
  }
  dec->Require(dec->remaining() == 0,
               "weighted boundary rows: trailing bytes");
  return out;
}

// ---------------------------------------------------------------------------
// BoundaryDistIndex

BoundaryDistIndex::BoundaryDistIndex(size_t num_fragments)
    : num_fragments_(num_fragments),
      fragment_rows_(num_fragments),
      have_rows_(num_fragments, false),
      dirty_(num_fragments, true),
      node_base_(num_fragments + 1, 0),
      oset_nodes_(num_fragments) {}

void BoundaryDistIndex::SetFragmentRows(SiteId site,
                                        WeightedBoundaryRows rows) {
  PEREACH_CHECK_LT(site, num_fragments_);
  fragment_rows_[site] = std::move(rows);
  have_rows_[site] = true;
  dirty_[site] = false;
  stale_ = true;
}

void BoundaryDistIndex::InvalidateFragment(SiteId site) {
  PEREACH_CHECK_LT(site, num_fragments_);
  dirty_[site] = true;
  stale_ = true;
}

void BoundaryDistIndex::InvalidateAll() {
  dirty_.assign(num_fragments_, true);
  stale_ = true;
}

std::vector<SiteId> BoundaryDistIndex::DirtySites() const {
  std::vector<SiteId> out;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    if (dirty_[s]) out.push_back(s);
  }
  return out;
}

const std::vector<uint32_t>& BoundaryDistIndex::oset_nodes(SiteId site) const {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  PEREACH_CHECK_LT(site, num_fragments_);
  return oset_nodes_[site];
}

uint32_t BoundaryDistIndex::InNode(uint64_t global) const {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  if (global >= kInvalidNode) return kNoNode;
  const auto it = node_of_.find(static_cast<NodeId>(global));
  return it == node_of_.end() ? kNoNode : it->second;
}

void BoundaryDistIndex::Ensure() {
  if (!stale_) return;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    PEREACH_CHECK(have_rows_[s] && !dirty_[s] &&
                  "Ensure with dirty fragments: refresh their rows first");
  }

  size_t num_entries = 0;
  node_of_.clear();
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const WeightedBoundaryRows& fr = fragment_rows_[s];
    node_base_[s + 1] =
        node_base_[s] + static_cast<uint32_t>(fr.in_globals.size());
    num_entries += fr.targets.size();
    for (uint32_t i = 0; i < fr.in_globals.size(); ++i) {
      node_of_.emplace(fr.in_globals[i], node_base_[s] + i);
    }
  }
  const uint32_t n = node_base_.back();
  for (SiteId s = 0; s < num_fragments_; ++s) {
    oset_nodes_[s].clear();
    for (const NodeId g : fragment_rows_[s].oset_globals) {
      const auto it = node_of_.find(g);
      oset_nodes_[s].push_back(it == node_of_.end() ? kNoNode : it->second);
    }
  }

  // Forward CSR straight from the rows, in node order; a dead-end entry
  // gets no edge.
  fwd_offsets_.assign(1, 0);
  fwd_offsets_.reserve(n + 1);
  fwd_targets_.clear();
  fwd_targets_.reserve(num_entries);
  fwd_weights_.clear();
  fwd_weights_.reserve(num_entries);
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const WeightedBoundaryRows& fr = fragment_rows_[s];
    for (size_t i = 0; i < fr.in_globals.size(); ++i) {
      for (size_t e = fr.offsets[i]; e < fr.offsets[i + 1]; ++e) {
        const uint32_t to = oset_nodes_[s][fr.targets[e]];
        if (to == kNoNode) continue;
        fwd_targets_.push_back(to);
        fwd_weights_.push_back(fr.hops[e]);
      }
      fwd_offsets_.push_back(fwd_targets_.size());
    }
  }

  // Reverse CSR: one counting sort of the forward edges by target.
  rev_offsets_.assign(n + 1, 0);
  for (const uint32_t to : fwd_targets_) ++rev_offsets_[to + 1];
  for (uint32_t v = 0; v < n; ++v) rev_offsets_[v + 1] += rev_offsets_[v];
  rev_targets_.resize(fwd_targets_.size());
  rev_weights_.resize(fwd_targets_.size());
  std::vector<size_t> cursor(rev_offsets_.begin(), rev_offsets_.end() - 1);
  for (uint32_t u = 0; u < n; ++u) {
    for (size_t e = fwd_offsets_[u]; e < fwd_offsets_[u + 1]; ++e) {
      const size_t at = cursor[fwd_targets_[e]]++;
      rev_targets_[at] = u;
      rev_weights_[at] = fwd_weights_[e];
    }
  }

  for (auto& d : dist_) d.assign(n, kInfWeight);
  for (auto& m : visit_mark_) m.assign(n, 0);
  visit_version_ = 0;
  stale_ = false;
  ++rebuild_count_;
}

uint64_t BoundaryDistIndex::ShortestPath(std::span<const Seed> sources,
                                         std::span<const Seed> targets,
                                         uint32_t max_edge_weight) {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  ++search_count_;
  if (sources.empty() || targets.empty()) return kInfWeight;

  if (++visit_version_ == 0) {  // wrapped: re-zero the marks once
    for (auto& m : visit_mark_) m.assign(m.size(), 0);
    visit_version_ = 1;
  }

  using HeapItem = std::pair<uint64_t, uint32_t>;  // (dist, dense node)
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap[2];
  uint64_t best = kInfWeight;

  const auto relax = [&](int side, uint32_t v, uint64_t d) {
    if (visit_mark_[side][v] != visit_version_) {
      visit_mark_[side][v] = visit_version_;
      dist_[side][v] = kInfWeight;
    }
    if (d >= dist_[side][v]) return;
    dist_[side][v] = d;
    heap[side].emplace(d, v);
    const int other = 1 - side;
    if (visit_mark_[other][v] == visit_version_ &&
        dist_[other][v] != kInfWeight) {
      best = std::min(best, d + dist_[other][v]);
    }
  };
  for (const Seed& s : sources) {
    PEREACH_CHECK_LT(s.node, node_base_.back());
    relax(0, s.node, s.dist);
  }
  for (const Seed& t : targets) {
    PEREACH_CHECK_LT(t.node, node_base_.back());
    relax(1, t.node, t.dist);
  }

  // Both frontiers expand toward each other; an incumbent is optimal once
  // the two frontier tops can no longer combine below it. `best` is updated
  // on every relaxation, not just on settle, so the rule holds for any
  // non-negative weights.
  while (!heap[0].empty() || !heap[1].empty()) {
    const uint64_t top0 = heap[0].empty() ? kInfWeight : heap[0].top().first;
    const uint64_t top1 = heap[1].empty() ? kInfWeight : heap[1].top().first;
    if (top0 == kInfWeight || top1 == kInfWeight) {
      // One side is exhausted: every remaining candidate costs at least the
      // live side's top, so the incumbent is final once that top passes it.
      if (std::min(top0, top1) >= best) break;
    } else if (top0 + top1 >= best) {
      break;
    }
    const int side = top0 <= top1 ? 0 : 1;
    const auto [d, v] = heap[side].top();
    heap[side].pop();
    if (d > dist_[side][v]) continue;  // stale entry
    ++settled_nodes_;
    const auto& offsets = side == 0 ? fwd_offsets_ : rev_offsets_;
    const auto& tgts = side == 0 ? fwd_targets_ : rev_targets_;
    const auto& weights = side == 0 ? fwd_weights_ : rev_weights_;
    for (size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      // The per-query bound filter: localEvald never ships a local segment
      // above the bound, so the BES-equivalent graph excludes such edges.
      if (weights[e] > max_edge_weight) continue;
      relax(side, tgts[e], d + weights[e]);
    }
  }
  return best;
}

size_t BoundaryDistIndex::ByteSize() const {
  size_t bytes =
      node_of_.size() * (sizeof(NodeId) + sizeof(uint32_t)) +
      (fwd_offsets_.size() + rev_offsets_.size()) * sizeof(size_t) +
      (fwd_targets_.size() + rev_targets_.size()) * 2 * sizeof(uint32_t);
  for (size_t s = 0; s < num_fragments_; ++s) {
    const WeightedBoundaryRows& fr = fragment_rows_[s];
    bytes += fr.offsets.size() * sizeof(size_t) +
             (fr.targets.size() + fr.hops.size()) * sizeof(uint32_t) +
             (fr.oset_globals.size() + fr.in_globals.size()) * sizeof(NodeId) +
             oset_nodes_[s].size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace pereach
