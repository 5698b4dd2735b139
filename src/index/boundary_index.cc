#include "src/index/boundary_index.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "src/util/logging.h"

namespace pereach {

// ---------------------------------------------------------------------------
// BoundaryRows wire format

namespace {

void PutCompTable(const std::vector<uint64_t>& keys,
                  const std::vector<uint32_t>& comps, Encoder* enc) {
  PEREACH_CHECK_EQ(keys.size(), comps.size());
  enc->PutVarint(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    enc->PutVarint(keys[i]);
    enc->PutVarint(comps[i]);
  }
}

void GetCompTable(Decoder* dec, size_t num_components, const char* what,
                  std::vector<uint64_t>* keys, std::vector<uint32_t>* comps) {
  keys->resize(dec->GetCount(/*min_element_bytes=*/2));
  comps->resize(keys->size());
  for (size_t i = 0; i < keys->size(); ++i) {
    (*keys)[i] = dec->GetVarint();
    const uint64_t comp = dec->GetVarint();
    if (!dec->Require(comp < num_components, what)) return;
    (*comps)[i] = static_cast<uint32_t>(comp);
  }
}

}  // namespace

void BoundaryRows::Serialize(Encoder* enc) const {
  enc->PutVarint(num_components());
  for (size_t c = 0; c < num_components(); ++c) {
    enc->PutVarint(offsets[c + 1] - offsets[c]);
    // Condense lists each component's successors ascending: delta-encode.
    uint32_t prev = 0;
    for (size_t e = offsets[c]; e < offsets[c + 1]; ++e) {
      enc->PutVarint(targets[e] - prev);
      prev = targets[e];
    }
  }
  PutCompTable(oset_keys, oset_comp, enc);
  PutCompTable(in_keys, in_comp, enc);
}

BoundaryRows BoundaryRows::Deserialize(Decoder* dec) {
  BoundaryRows out;
  const size_t num_components = dec->GetCount();
  out.offsets.reserve(num_components + 1);
  out.offsets.push_back(0);
  for (size_t c = 0; c < num_components; ++c) {
    uint32_t prev = 0;
    for (size_t n = dec->GetCount(); n > 0; --n) {
      prev += static_cast<uint32_t>(dec->GetVarint());
      if (!dec->Require(prev < num_components,
                        "boundary rows: edge target out of range")) {
        return out;
      }
      out.targets.push_back(prev);
    }
    out.offsets.push_back(out.targets.size());
  }
  GetCompTable(dec, num_components,
               "boundary rows: oset component out of range",
               &out.oset_keys, &out.oset_comp);
  GetCompTable(dec, num_components,
               "boundary rows: in-node component out of range",
               &out.in_keys, &out.in_comp);
  return out;
}

// ---------------------------------------------------------------------------
// GluedFragments

GluedFragments::GluedFragments(size_t num_fragments)
    : num_fragments_(num_fragments),
      fragment_rows_(num_fragments),
      node_base_(num_fragments + 1, 0),
      have_rows_(num_fragments, false),
      dirty_(num_fragments, true) {}

void GluedFragments::SetFragmentRows(SiteId site, BoundaryRows rows) {
  PEREACH_CHECK_LT(site, num_fragments_);
  fragment_rows_[site] = std::move(rows);
  have_rows_[site] = true;
  dirty_[site] = false;
  stale_ = true;
}

void GluedFragments::InvalidateFragment(SiteId site) {
  PEREACH_CHECK_LT(site, num_fragments_);
  dirty_[site] = true;
  stale_ = true;
}

void GluedFragments::InvalidateAll() {
  dirty_.assign(num_fragments_, true);
  stale_ = true;
}

std::vector<SiteId> GluedFragments::DirtySites() const {
  std::vector<SiteId> out;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    if (dirty_[s]) out.push_back(s);
  }
  return out;
}

void GluedFragments::Ensure() {
  if (!stale_) return;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    PEREACH_CHECK(have_rows_[s] && !dirty_[s] &&
                  "Ensure with dirty fragments: refresh their rows first");
  }

  for (SiteId s = 0; s < num_fragments_; ++s) {
    node_base_[s + 1] = node_base_[s] + static_cast<uint32_t>(
                                            fragment_rows_[s].num_components());
  }
  // The real copy of every boundary key: its component at its owner.
  std::unordered_map<uint64_t, uint32_t> real_copy;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const BoundaryRows& fr = fragment_rows_[s];
    for (size_t i = 0; i < fr.in_keys.size(); ++i) {
      real_copy.emplace(fr.in_keys[i], node_base_[s] + fr.in_comp[i]);
    }
  }

  Build(real_copy);
  stale_ = false;
  ++rebuild_count_;
}

uint32_t GluedFragments::Node(SiteId site, uint64_t comp) const {
  PEREACH_CHECK(!stale_ && "Ensure() before querying");
  PEREACH_CHECK_LT(site, num_fragments_);
  return comp < node_base_[site + 1] - node_base_[site]
             ? node_base_[site] + static_cast<uint32_t>(comp)
             : kNoNode;
}

size_t GluedFragments::RowsByteSize() const {
  size_t bytes = node_base_.size() * sizeof(uint32_t);
  for (const BoundaryRows& fr : fragment_rows_) {
    bytes += fr.offsets.size() * sizeof(size_t) +
             fr.targets.size() * sizeof(uint32_t) +
             (fr.oset_keys.size() + fr.in_keys.size()) *
                 (sizeof(uint64_t) + sizeof(uint32_t));
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// BoundaryReachIndex

void BoundaryReachIndex::Build(
    const std::unordered_map<uint64_t, uint32_t>& real_copy) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (SiteId s = 0; s < num_fragments_; ++s) {
    const BoundaryRows& fr = fragment_rows_[s];
    const uint32_t base = node_base_[s];
    for (uint32_t c = 0; c < fr.num_components(); ++c) {
      for (size_t e = fr.offsets[c]; e < fr.offsets[c + 1]; ++e) {
        edges.emplace_back(base + c, base + fr.targets[e]);
      }
    }
    // Glue. An oset entry naming no in-node (only a forged reply has one)
    // gets no glue edge: its component stays a dead end.
    for (size_t j = 0; j < fr.oset_keys.size(); ++j) {
      const auto it = real_copy.find(fr.oset_keys[j]);
      if (it != real_copy.end()) {
        edges.emplace_back(base + fr.oset_comp[j], it->second);
      }
    }
  }
  labels_.Build(num_nodes(), edges);
}

void BoundaryReachIndex::AppendSuccessors(uint32_t node,
                                          std::vector<uint32_t>* out) const {
  PEREACH_CHECK(!dirty() && "Ensure() before querying");
  PEREACH_CHECK_LT(node, num_nodes());
  // The fragment whose node range holds `node`: the last base <= node.
  const size_t site = static_cast<size_t>(
      std::upper_bound(node_base_.begin(), node_base_.end(), node) -
      node_base_.begin() - 1);
  const BoundaryRows& fr = fragment_rows_[site];
  const uint32_t base = node_base_[site];
  for (size_t e = fr.offsets[node - base]; e < fr.offsets[node - base + 1];
       ++e) {
    out->push_back(base + fr.targets[e]);
  }
}

bool BoundaryReachIndex::Reaches(uint32_t u, uint32_t v) {
  PEREACH_CHECK(!dirty() && "Ensure() before querying");
  PEREACH_CHECK_LT(u, num_nodes());
  PEREACH_CHECK_LT(v, num_nodes());
  return labels_.ReachesAny({&u, 1}, {&v, 1});
}

void BoundaryReachIndex::AnswerBatch(std::span<const WordQuestion> questions,
                                     std::vector<uint8_t>* answers) {
  PEREACH_CHECK(!dirty() && "Ensure() before querying");
  for (const WordQuestion& q : questions) {
    for (const uint32_t u : q.sources) PEREACH_CHECK_LT(u, num_nodes());
    for (const uint32_t v : q.targets) PEREACH_CHECK_LT(v, num_nodes());
  }
  answers->assign(questions.size(), 0);
  for (size_t base = 0; base < questions.size();
       base += BitsetSweep::kLanes) {
    const size_t lanes =
        std::min(BitsetSweep::kLanes, questions.size() - base);
    const uint64_t bits =
        labels_.ReachesAnyWord(questions.subspan(base, lanes));
    for (size_t li = 0; li < lanes; ++li) {
      (*answers)[base + li] = static_cast<uint8_t>((bits >> li) & 1);
    }
  }
}

size_t BoundaryReachIndex::ByteSize() const {
  return RowsByteSize() + labels_.ByteSize();
}

}  // namespace pereach
