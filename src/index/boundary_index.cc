#include "src/index/boundary_index.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/util/logging.h"

namespace pereach {

// ---------------------------------------------------------------------------
// BoundaryRows wire format

void BoundaryRows::Serialize(Encoder* enc) const {
  enc->PutVarint(oset_globals.size());
  for (NodeId g : oset_globals) enc->PutVarint(g);
  PEREACH_CHECK_EQ(rep_globals.size(), rows.size());
  enc->PutVarint(rep_globals.size());
  for (size_t g = 0; g < rep_globals.size(); ++g) {
    enc->PutVarint(rep_globals[g]);
    enc->PutVarint(rows[g].size());
    // Ascending oset indices: delta-encode, same trick as the sparse
    // equation encoding of ReachPartialAnswer.
    uint32_t prev = 0;
    for (uint32_t idx : rows[g]) {
      enc->PutVarint(idx - prev);
      prev = idx;
    }
  }
  enc->PutVarint(aliases.size());
  for (const auto& [member, rep] : aliases) {
    enc->PutVarint(member);
    enc->PutVarint(rep);
  }
}

BoundaryRows BoundaryRows::Deserialize(Decoder* dec) {
  BoundaryRows out;
  out.oset_globals.resize(dec->GetCount());
  for (NodeId& g : out.oset_globals) g = static_cast<NodeId>(dec->GetVarint());
  const size_t groups = dec->GetCount();
  out.rep_globals.resize(groups);
  out.rows.resize(groups);
  for (size_t g = 0; g < groups; ++g) {
    out.rep_globals[g] = static_cast<NodeId>(dec->GetVarint());
    out.rows[g].resize(dec->GetCount());
    uint32_t prev = 0;
    for (uint32_t& idx : out.rows[g]) {
      prev += static_cast<uint32_t>(dec->GetVarint());
      idx = prev;
      if (!dec->Require(idx < out.oset_globals.size(),
                        "boundary rows: oset index out of range")) {
        return out;
      }
    }
  }
  out.aliases.resize(dec->GetCount());
  for (auto& [member, rep] : out.aliases) {
    member = static_cast<NodeId>(dec->GetVarint());
    rep = static_cast<NodeId>(dec->GetVarint());
  }
  return out;
}

// ---------------------------------------------------------------------------
// BoundaryReachIndex

BoundaryReachIndex::BoundaryReachIndex(size_t num_fragments,
                                       size_t shortcut_budget)
    : num_fragments_(num_fragments),
      shortcut_budget_(shortcut_budget),
      fragment_rows_(num_fragments),
      have_rows_(num_fragments, false),
      dirty_(num_fragments, true) {}

void BoundaryReachIndex::SetFragmentRows(SiteId site, BoundaryRows rows) {
  PEREACH_CHECK_LT(site, num_fragments_);
  fragment_rows_[site] = std::move(rows);
  have_rows_[site] = true;
  dirty_[site] = false;
  stale_ = true;
}

void BoundaryReachIndex::InvalidateFragment(SiteId site) {
  PEREACH_CHECK_LT(site, num_fragments_);
  dirty_[site] = true;
  stale_ = true;
}

void BoundaryReachIndex::InvalidateAll() {
  dirty_.assign(num_fragments_, true);
  stale_ = true;
}

std::vector<SiteId> BoundaryReachIndex::DirtySites() const {
  std::vector<SiteId> out;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    if (dirty_[s]) out.push_back(s);
  }
  return out;
}

const std::vector<NodeId>& BoundaryReachIndex::oset_globals(
    SiteId site) const {
  PEREACH_CHECK_LT(site, num_fragments_);
  PEREACH_CHECK(have_rows_[site] && !dirty_[site]);
  return fragment_rows_[site].oset_globals;
}

void BoundaryReachIndex::Ensure() {
  if (!stale_) return;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    PEREACH_CHECK(have_rows_[s] && !dirty_[s] &&
                  "Ensure with dirty fragments: refresh their rows first");
  }

  // Intern the boundary-node universe (global id -> dense id). Every
  // virtual node is an in-node of the fragment storing its real copy, so
  // interning reps, alias members and row targets covers the whole V_f.
  dense_of_.clear();
  auto intern = [this](NodeId g) {
    return dense_of_.emplace(g, static_cast<uint32_t>(dense_of_.size()))
        .first->second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const BoundaryRows& fr = fragment_rows_[s];
    for (size_t g = 0; g < fr.rep_globals.size(); ++g) {
      const uint32_t rep = intern(fr.rep_globals[g]);
      for (uint32_t idx : fr.rows[g]) {
        edges.emplace_back(rep, intern(fr.oset_globals[idx]));
      }
    }
    // An alias member reaches its representative inside the fragment (same
    // local SCC), so a single member -> rep edge stands in for the member's
    // whole row; the rep carries the fan-out once per group.
    for (const auto& [member, rep] : fr.aliases) {
      edges.emplace_back(intern(member), intern(rep));
    }
  }
  // Honest rows have interned every oset entry by now; interning the whole
  // tables anyway keeps every sweep exit resolvable whatever a reply held.
  for (SiteId s = 0; s < num_fragments_; ++s) {
    for (const NodeId g : fragment_rows_[s].oset_globals) intern(g);
  }

  // Condensation + GRAIL labels: the coordinator core shared with the
  // product boundary graph (see ReachLabels).
  labels_.Build(dense_of_.size(), edges, shortcut_budget_);
  stale_ = false;
  ++rebuild_count_;
}

bool BoundaryReachIndex::IsBoundaryNode(NodeId global) const {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  return dense_of_.contains(global);
}

uint32_t BoundaryReachIndex::DenseOf(NodeId global) const {
  const auto it = dense_of_.find(global);
  PEREACH_CHECK(it != dense_of_.end() &&
                "query endpoint is not a boundary node of this epoch");
  return it->second;
}

bool BoundaryReachIndex::Reaches(NodeId u, NodeId v) {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  const NodeId a[1] = {u}, b[1] = {v};
  return ReachesAny(a, b);
}

bool BoundaryReachIndex::ReachesAny(std::span<const NodeId> sources,
                                    std::span<const NodeId> targets) {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  if (sources.empty() || targets.empty()) return false;
  std::vector<uint32_t> src;
  src.reserve(sources.size());
  for (NodeId u : sources) src.push_back(DenseOf(u));
  std::vector<uint32_t> tgt;
  tgt.reserve(targets.size());
  for (NodeId v : targets) tgt.push_back(DenseOf(v));
  return labels_.ReachesAny(src, tgt);
}

void BoundaryReachIndex::AnswerBatch(std::span<const ReachQuestion> questions,
                                     std::vector<uint8_t>* answers) {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  answers->assign(questions.size(), 0);
  for (size_t base = 0; base < questions.size();
       base += BitsetSweep::kLanes) {
    const size_t lanes =
        std::min(BitsetSweep::kLanes, questions.size() - base);
    // Map every endpoint to its dense id up front — flat storage, spans
    // built only after the fill so growth can't invalidate them.
    size_t total = 0;
    for (size_t li = 0; li < lanes; ++li) {
      total += questions[base + li].sources.size() +
               questions[base + li].targets.size();
    }
    batch_nodes_.clear();
    batch_nodes_.reserve(total);
    batch_word_.clear();
    batch_word_.resize(lanes);
    // Per-lane {s_off, s_len, t_off, t_len} into the flat dense-id array.
    std::vector<std::array<size_t, 4>> extents(lanes);
    for (size_t li = 0; li < lanes; ++li) {
      const ReachQuestion& q = questions[base + li];
      extents[li][0] = batch_nodes_.size();
      for (const NodeId u : q.sources) batch_nodes_.push_back(DenseOf(u));
      extents[li][1] = q.sources.size();
      extents[li][2] = batch_nodes_.size();
      for (const NodeId v : q.targets) batch_nodes_.push_back(DenseOf(v));
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

size_t BoundaryReachIndex::ByteSize() const {
  size_t bytes = dense_of_.size() * (sizeof(NodeId) + sizeof(uint32_t)) +
                 labels_.ByteSize();
  for (const BoundaryRows& fr : fragment_rows_) {
    bytes += fr.oset_globals.size() * sizeof(NodeId) +
             fr.rep_globals.size() * sizeof(NodeId) +
             fr.aliases.size() * sizeof(fr.aliases[0]);
    for (const auto& row : fr.rows) bytes += row.size() * sizeof(uint32_t);
  }
  return bytes;
}

}  // namespace pereach
