#include "src/index/boundary_dist_index.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "src/util/logging.h"

namespace pereach {

// ---------------------------------------------------------------------------
// WeightedBoundaryRows wire format

void WeightedBoundaryRows::Serialize(Encoder* enc) const {
  enc->PutVarint(oset_globals.size());
  for (NodeId g : oset_globals) enc->PutVarint(g);
  PEREACH_CHECK_EQ(rep_globals.size(), rows.size());
  enc->PutVarint(rep_globals.size());
  for (size_t g = 0; g < rep_globals.size(); ++g) {
    enc->PutVarint(rep_globals[g]);
    enc->PutVarint(rows[g].size());
    // Ascending oset indices: delta-encode the index, varint the hop count
    // (small on real partitions — most boundary hops are short).
    uint32_t prev = 0;
    for (const auto& [idx, hops] : rows[g]) {
      enc->PutVarint(idx - prev);
      enc->PutVarint(hops);
      prev = idx;
    }
  }
  enc->PutVarint(aliases.size());
  for (const auto& [member, rep] : aliases) {
    enc->PutVarint(member);
    enc->PutVarint(rep);
  }
}

WeightedBoundaryRows WeightedBoundaryRows::Deserialize(Decoder* dec) {
  WeightedBoundaryRows out;
  out.oset_globals.resize(dec->GetCount());
  for (NodeId& g : out.oset_globals) g = static_cast<NodeId>(dec->GetVarint());
  const size_t groups = dec->GetCount();
  out.rep_globals.resize(groups);
  out.rows.resize(groups);
  for (size_t g = 0; g < groups; ++g) {
    out.rep_globals[g] = static_cast<NodeId>(dec->GetVarint());
    out.rows[g].resize(dec->GetCount(2));
    uint32_t prev = 0;
    for (auto& [idx, hops] : out.rows[g]) {
      prev += static_cast<uint32_t>(dec->GetVarint());
      idx = prev;
      hops = static_cast<uint32_t>(dec->GetVarint());
      if (!dec->Require(idx < out.oset_globals.size(),
                        "weighted boundary rows: oset index out of range")) {
        return out;
      }
    }
  }
  // Ensure() binds every alias to its rep's group: validate that here, so
  // a bad reply fails its decode instead of the rebuild.
  const std::unordered_set<NodeId> reps(out.rep_globals.begin(),
                                        out.rep_globals.end());
  out.aliases.resize(dec->GetCount(2));
  for (auto& [member, rep] : out.aliases) {
    member = static_cast<NodeId>(dec->GetVarint());
    rep = static_cast<NodeId>(dec->GetVarint());
    if (!dec->Require(reps.contains(rep),
                      "weighted boundary rows: alias to an unknown rep")) {
      return out;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// BoundaryDistIndex

BoundaryDistIndex::BoundaryDistIndex(size_t num_fragments)
    : num_fragments_(num_fragments),
      fragment_rows_(num_fragments),
      have_rows_(num_fragments, false),
      dirty_(num_fragments, true) {}

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

const std::vector<NodeId>& BoundaryDistIndex::oset_globals(SiteId site) const {
  PEREACH_CHECK_LT(site, num_fragments_);
  PEREACH_CHECK(have_rows_[site] && !dirty_[site]);
  return fragment_rows_[site].oset_globals;
}

void BoundaryDistIndex::Ensure() {
  if (!stale_) return;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    PEREACH_CHECK(have_rows_[s] && !dirty_[s] &&
                  "Ensure with dirty fragments: refresh their rows first");
  }

  // 1. Intern the boundary-node universe (global id -> dense id). Every
  // virtual node is an in-node of the fragment storing its real copy, so
  // interning reps, alias members and row targets covers the whole V_f.
  node_of_.clear();
  auto intern = [this](NodeId g) {
    return node_of_.emplace(g, static_cast<uint32_t>(node_of_.size()))
        .first->second;
  };
  struct Edge {
    uint32_t from;
    uint32_t to;
    uint32_t weight;
  };
  std::vector<Edge> edges;
  // Shared-row groups get one AUX "row carrier" node: every member (the rep
  // included) takes a 0-weight edge INTO the carrier and the carrier holds
  // the fan-out once. A plain 0-weight member -> rep edge would be unsound:
  // its REVERSE traversal lets a t-side entry seed at the rep leak onto the
  // members, claiming dist(member, t) <= dist(rep, t) — but identical
  // boundary rows say nothing about local distances to an arbitrary t. The
  // carrier is one-way (members -> carrier -> targets), so search states at
  // a member always mean the actual G-node, while "departs via the shared
  // row" lives on the carrier — the aux-variable trick of the DAG equation
  // form, applied to the standing graph. Singleton groups skip the carrier
  // and keep the fan-out on the rep itself.
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const WeightedBoundaryRows& fr = fragment_rows_[s];
    for (const NodeId g : fr.rep_globals) intern(g);
    for (const auto& [member, rep] : fr.aliases) {
      intern(member);
      intern(rep);
    }
    for (const NodeId g : fr.oset_globals) intern(g);
  }
  // Carriers take dense ids after the whole boundary universe.
  uint32_t next_aux = static_cast<uint32_t>(node_of_.size());
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const WeightedBoundaryRows& fr = fragment_rows_[s];
    // Members per group: the rep plus every alias bound to it.
    std::unordered_map<NodeId, uint32_t> group_of_rep;
    std::vector<std::vector<uint32_t>> members(fr.rep_globals.size());
    for (size_t g = 0; g < fr.rep_globals.size(); ++g) {
      group_of_rep.emplace(fr.rep_globals[g], static_cast<uint32_t>(g));
      members[g].push_back(intern(fr.rep_globals[g]));
    }
    for (const auto& [member, rep] : fr.aliases) {
      const auto it = group_of_rep.find(rep);
      // Deserialize already rejected rows with such an alias.
      PEREACH_CHECK(it != group_of_rep.end() && "alias to an unknown rep");
      members[it->second].push_back(intern(member));
    }
    for (size_t g = 0; g < fr.rep_globals.size(); ++g) {
      const uint32_t carrier =
          members[g].size() == 1 ? members[g][0] : next_aux++;
      if (members[g].size() > 1) {
        for (const uint32_t m : members[g]) {
          edges.push_back({m, carrier, 0});
        }
      }
      for (const auto& [idx, hops] : fr.rows[g]) {
        edges.push_back({carrier, intern(fr.oset_globals[idx]), hops});
      }
    }
  }

  // 2. Forward and reverse CSR by counting sort — the graph is small (the
  // paper's boundary measure |V_f| plus the carriers), the search just
  // needs both directions.
  const size_t n = next_aux;
  fwd_offsets_.assign(n + 1, 0);
  rev_offsets_.assign(n + 1, 0);
  for (const Edge& e : edges) {
    ++fwd_offsets_[e.from + 1];
    ++rev_offsets_[e.to + 1];
  }
  for (size_t v = 0; v < n; ++v) {
    fwd_offsets_[v + 1] += fwd_offsets_[v];
    rev_offsets_[v + 1] += rev_offsets_[v];
  }
  fwd_targets_.resize(edges.size());
  fwd_weights_.resize(edges.size());
  rev_targets_.resize(edges.size());
  rev_weights_.resize(edges.size());
  std::vector<size_t> fcur(fwd_offsets_.begin(), fwd_offsets_.end() - 1);
  std::vector<size_t> rcur(rev_offsets_.begin(), rev_offsets_.end() - 1);
  for (const Edge& e : edges) {
    fwd_targets_[fcur[e.from]] = e.to;
    fwd_weights_[fcur[e.from]++] = e.weight;
    rev_targets_[rcur[e.to]] = e.from;
    rev_weights_[rcur[e.to]++] = e.weight;
  }

  for (auto& d : dist_) d.assign(n, kInfWeight);
  for (auto& m : visit_mark_) m.assign(n, 0);
  visit_version_ = 0;
  stale_ = false;
  ++rebuild_count_;
}

bool BoundaryDistIndex::IsBoundaryNode(NodeId global) const {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  return node_of_.contains(global);
}

uint32_t BoundaryDistIndex::DenseOf(NodeId global) const {
  const auto it = node_of_.find(global);
  PEREACH_CHECK(it != node_of_.end() &&
                "search seed is not a boundary node of this epoch");
  return it->second;
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
  for (const Seed& s : sources) relax(0, DenseOf(s.node), s.dist);
  for (const Seed& t : targets) relax(1, DenseOf(t.node), t.dist);

  // Both frontiers expand toward each other; an incumbent is optimal once
  // the two frontier tops can no longer combine below it. `best` is updated
  // on every relaxation (not just on settle), which makes that stop rule
  // sound with 0-weight alias edges in the graph.
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
  for (const WeightedBoundaryRows& fr : fragment_rows_) {
    bytes += fr.oset_globals.size() * sizeof(NodeId) +
             fr.rep_globals.size() * sizeof(NodeId) +
             fr.aliases.size() * sizeof(fr.aliases[0]);
    for (const auto& row : fr.rows) bytes += row.size() * sizeof(row[0]);
  }
  return bytes;
}

}  // namespace pereach
