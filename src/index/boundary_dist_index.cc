#include "src/index/boundary_dist_index.h"

#include <numeric>
#include <utility>

#include "src/util/logging.h"

namespace pereach {

void BoundaryDistIndex::Build(
    const std::unordered_map<uint64_t, uint32_t>& real_copy) {
  const uint32_t n = static_cast<uint32_t>(num_nodes());
  // Where an edge into each node lands: the node itself, or the real copy
  // of a virtual copy. An oset entry with no real copy stays itself, a
  // dead end with no out-edges.
  std::vector<uint32_t> lands_on(n);
  std::iota(lands_on.begin(), lands_on.end(), 0);
  size_t num_edges = 0;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const BoundaryRows& fr = fragment_rows_[s];
    num_edges += fr.targets.size();
    for (size_t j = 0; j < fr.oset_keys.size(); ++j) {
      const auto it = real_copy.find(fr.oset_keys[j]);
      if (it != real_copy.end()) {
        lands_on[node_base_[s] + fr.oset_comp[j]] = it->second;
      }
    }
  }

  // Forward CSR straight from the rows, in node order.
  fwd_offsets_.assign(1, 0);
  fwd_offsets_.reserve(n + 1);
  fwd_targets_.clear();
  fwd_targets_.reserve(num_edges);
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const BoundaryRows& fr = fragment_rows_[s];
    const uint32_t base = node_base_[s];
    for (size_t c = 0; c < fr.num_components(); ++c) {
      for (size_t e = fr.offsets[c]; e < fr.offsets[c + 1]; ++e) {
        fwd_targets_.push_back(lands_on[base + fr.targets[e]]);
      }
      fwd_offsets_.push_back(fwd_targets_.size());
    }
  }

  // Reverse CSR: one counting sort of the forward edges by target.
  rev_offsets_.assign(n + 1, 0);
  for (const uint32_t to : fwd_targets_) ++rev_offsets_[to + 1];
  for (uint32_t v = 0; v < n; ++v) rev_offsets_[v + 1] += rev_offsets_[v];
  rev_targets_.resize(fwd_targets_.size());
  std::vector<size_t> cursor(rev_offsets_.begin(), rev_offsets_.end() - 1);
  for (uint32_t u = 0; u < n; ++u) {
    for (size_t e = fwd_offsets_[u]; e < fwd_offsets_[u + 1]; ++e) {
      rev_targets_[cursor[fwd_targets_[e]]++] = u;
    }
  }

  for (auto& m : visit_mark_) m.assign(n, 0);
  visit_version_ = 0;
}

uint64_t BoundaryDistIndex::Distance(uint32_t s, uint32_t t, uint32_t bound) {
  PEREACH_CHECK(!dirty() && "Ensure() before querying");
  PEREACH_CHECK_LT(s, num_nodes());
  PEREACH_CHECK_LT(t, num_nodes());
  ++search_count_;
  if (s == t) return 0;
  if (++visit_version_ == 0) {  // wrapped: re-zero the marks once
    for (auto& m : visit_mark_) m.assign(m.size(), 0);
    visit_version_ = 1;
  }
  visit_mark_[0][s] = visit_version_;
  visit_mark_[1][t] = visit_version_;
  frontier_[0].assign(1, s);
  frontier_[1].assign(1, t);

  // Invariant: side i has marked exactly the nodes within depth[i] hops of
  // its endpoint, and no node carries both marks, so dist(s, t) exceeds
  // depth[0] + depth[1]. Expanding one level finds every route of one hop
  // more; the first node met from the other side closes a shortest one.
  uint64_t depth[2] = {0, 0};
  while (depth[0] + depth[1] < bound && !frontier_[0].empty() &&
         !frontier_[1].empty()) {
    const int side = frontier_[0].size() <= frontier_[1].size() ? 0 : 1;
    const std::vector<size_t>& offsets = side == 0 ? fwd_offsets_ : rev_offsets_;
    const std::vector<uint32_t>& targets =
        side == 0 ? fwd_targets_ : rev_targets_;
    std::vector<uint32_t>& mine = visit_mark_[side];
    const std::vector<uint32_t>& theirs = visit_mark_[1 - side];
    next_.clear();
    for (const uint32_t v : frontier_[side]) {
      ++settled_nodes_;
      for (size_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const uint32_t w = targets[e];
        if (theirs[w] == visit_version_) return depth[0] + depth[1] + 1;
        if (mine[w] == visit_version_) continue;
        mine[w] = visit_version_;
        next_.push_back(w);
      }
    }
    std::swap(frontier_[side], next_);
    ++depth[side];
  }
  return kInfWeight;
}

size_t BoundaryDistIndex::ByteSize() const {
  return RowsByteSize() +
         (fwd_offsets_.size() + rev_offsets_.size()) * sizeof(size_t) +
         (fwd_targets_.size() + rev_targets_.size() +
          visit_mark_[0].size() + visit_mark_[1].size()) *
             sizeof(uint32_t);
}

}  // namespace pereach
