#include "src/index/reach_labels.h"

#include <algorithm>
#include <array>
#include <utility>

#include "src/graph/algorithms.h"
#include "src/graph/graph.h"

namespace pereach {

// --- BitsetSweep -----------------------------------------------------------

void BitsetSweep::Resize(size_t num_nodes) {
  mask_.assign(num_nodes, 0);
  tmask_.assign(num_nodes, 0);
  pending_.assign(num_nodes, 0);
  dirty_.assign(num_nodes, 0);
  touched_.clear();
  seed_hits_ = 0;
  max_seed_ = 0;
  min_target_ = 0;
  have_seed_ = false;
  have_target_ = false;
  last_depth_ = 0;
}

void BitsetSweep::Touch(uint32_t node) {
  if (!dirty_[node]) {
    dirty_[node] = 1;
    touched_.push_back(node);
  }
}

void BitsetSweep::SeedSources(uint32_t node, uint64_t lanes) {
  PEREACH_CHECK_LT(node, mask_.size());
  Touch(node);
  // Reflexive: the node may already carry these lanes as a target.
  seed_hits_ |= lanes & tmask_[node];
  mask_[node] |= lanes;
  pending_[node] = 1;
  max_seed_ = have_seed_ ? std::max(max_seed_, node) : node;
  have_seed_ = true;
}

void BitsetSweep::SeedTargets(uint32_t node, uint64_t lanes) {
  PEREACH_CHECK_LT(node, tmask_.size());
  Touch(node);
  seed_hits_ |= lanes & mask_[node];
  tmask_[node] |= lanes;
  min_target_ = have_target_ ? std::min(min_target_, node) : node;
  have_target_ = true;
}

uint64_t BitsetSweep::Run(std::span<const size_t> offsets,
                          std::span<const uint32_t> targets,
                          uint64_t undecided) {
  uint64_t result = seed_hits_ & undecided;
  uint64_t remaining = undecided & ~result;
  last_depth_ = 0;
  if (have_seed_ && have_target_ && remaining != 0) {
    // Descending-id scan from the highest seed: every contributor of a node
    // has a higher id, so when `c` comes up its mask is final. Nothing below
    // the lowest target can lie on a path to any target (ids strictly
    // decrease along every edge), hence the min_target_ floor.
    for (uint32_t c = max_seed_ + 1; c-- > min_target_;) {
      if (!pending_[c]) continue;
      const uint64_t m = mask_[c] & remaining;
      if (m == 0) continue;
      ++last_depth_;
      for (size_t e = offsets[c]; e < offsets[c + 1]; ++e) {
        const uint32_t v = targets[e];
        if (v < min_target_) continue;
        Touch(v);
        // Push-time target check: lanes resolve the moment their frontier
        // lands on a target, so the sweep (and its depth) stops early on
        // all-positive words.
        const uint64_t hit = m & tmask_[v];
        if (hit != 0) {
          result |= hit;
          remaining &= ~hit;
          if (remaining == 0) break;
        }
        mask_[v] |= m;
        pending_[v] = 1;
      }
      if (remaining == 0) break;
    }
  }
  // Consume the seeds: O(touched) re-clear readies the next word.
  for (const uint32_t t : touched_) {
    mask_[t] = 0;
    tmask_[t] = 0;
    pending_[t] = 0;
    dirty_[t] = 0;
  }
  touched_.clear();
  seed_hits_ = 0;
  max_seed_ = 0;
  min_target_ = 0;
  have_seed_ = false;
  have_target_ = false;
  return result;
}

// --- ReachLabels -----------------------------------------------------------

void ReachLabels::Build(
    size_t num_nodes,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  ScopedExclusiveUse guard(&exclusive_use_);
  // 1. Condense. The graph is built as a real Graph so the SCC /
  // condensation machinery (and its reverse-topological id guarantee) is
  // shared with the fragment-local path.
  GraphBuilder builder;
  builder.AddNodes(num_nodes);
  for (const auto& [u, v] : edges) {
    builder.AddEdge(static_cast<NodeId>(u), static_cast<NodeId>(v));
  }
  const Condensation cond = Condense(std::move(builder).Build());
  num_comps_ = cond.scc.num_components;
  component_of_ = cond.scc.component_of;
  adj_offsets_ = cond.offsets;
  adj_targets_ = cond.targets;

  // 2. Labels over the condensation. Two deterministic DFS
  // labelings (natural and reversed child order); the first one's DFS-tree
  // intervals [tin, tout) double as the certain-positive check.
  labels_.assign(num_comps_, CompLabel{});
  std::vector<uint8_t> visited(num_comps_);
  // Frame: (component, next child position). Child positions count from the
  // labeling's iteration end so both orders share one loop.
  std::vector<std::pair<uint32_t, size_t>> stack;
  for (size_t labeling = 0; labeling < kNumLabelings; ++labeling) {
    visited.assign(num_comps_, 0);
    uint32_t time = 0;  // shared pre/post counter; only relative order counts
    uint32_t post = 0;
    // Root order: descending ids first pass (sources have high reverse-topo
    // ids), ascending second — more disagreement between the labelings.
    for (size_t r = 0; r < num_comps_; ++r) {
      const uint32_t root = static_cast<uint32_t>(
          labeling == 0 ? num_comps_ - 1 - r : r);
      if (visited[root]) continue;
      visited[root] = 1;
      if (labeling == 0) labels_[root].tin = time++;
      stack.emplace_back(root, 0);
      while (!stack.empty()) {
        auto& [c, child] = stack.back();
        const size_t degree = adj_offsets_[c + 1] - adj_offsets_[c];
        if (child == degree) {
          if (labeling == 0) labels_[c].tout = time++;
          labels_[c].post[labeling] = post++;
          stack.pop_back();
          continue;
        }
        const size_t pos = labeling == 0 ? adj_offsets_[c] + child
                                         : adj_offsets_[c + 1] - 1 - child;
        ++child;
        const uint32_t next = adj_targets_[pos];
        if (visited[next]) continue;
        visited[next] = 1;
        if (labeling == 0) labels_[next].tin = time++;
        stack.emplace_back(next, 0);
      }
    }
    // low = min post rank over all descendants: component ids are reverse
    // topological (every edge goes to a smaller id),
    // so an ascending scan sees every successor's final low.
    for (uint32_t c = 0; c < num_comps_; ++c) {
      uint32_t low = labels_[c].post[labeling];
      for (size_t e = adj_offsets_[c]; e < adj_offsets_[c + 1]; ++e) {
        low = std::min(low, labels_[adj_targets_[e]].low[labeling]);
      }
      labels_[c].low[labeling] = low;
    }
  }

  visit_mark_.assign(num_comps_, 0);
  visit_version_ = 0;
  sweep_.Resize(num_comps_);
}

bool ReachLabels::LabelContains(uint32_t cu, uint32_t cv) const {
  const CompLabel& lu = labels_[cu];
  const uint32_t pv0 = labels_[cv].post[0];
  const uint32_t pv1 = labels_[cv].post[1];
  return lu.low[0] <= pv0 && pv0 <= lu.post[0] &&  //
         lu.low[1] <= pv1 && pv1 <= lu.post[1];
}

int ReachLabels::LabelVerdict(uint32_t cu, uint32_t cv) const {
  if (cu == cv) return 1;
  // Reverse-topological ids: a descendant always has a smaller id.
  if (cv > cu) return 0;
  // Certain positive: cv sits inside cu's DFS-tree subtree (tree edges are
  // condensation edges, so the tree path is a real path).
  const CompLabel& lu = labels_[cu];
  const uint32_t tv = labels_[cv].tin;
  if (lu.tin <= tv && tv < lu.tout) return 1;
  // Certain negative: interval containment is necessary for reachability.
  if (!LabelContains(cu, cv)) return 0;
  return -1;
}

void ReachLabels::CollectComponents(std::span<const uint32_t> nodes,
                                    std::vector<uint32_t>* out) const {
  out->clear();
  out->reserve(nodes.size());
  for (const uint32_t u : nodes) out->push_back(comp_of(u));
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

bool ReachLabels::ReachesAny(std::span<const uint32_t> sources,
                             std::span<const uint32_t> targets) {
  if (sources.empty() || targets.empty()) return false;
  ScopedExclusiveUse guard(&exclusive_use_);

  // Dedupe both sides at the component level; within one side, members of
  // the same component are interchangeable.
  std::vector<uint32_t> src;
  CollectComponents(sources, &src);
  std::vector<uint32_t> tgt;
  CollectComponents(targets, &tgt);

  // Label pass: decide every (source, target) component pair by labels
  // alone; collect the sources with an undecided pair for the fallback.
  std::vector<uint32_t> undecided;
  for (uint32_t cs : src) {
    bool pending = false;
    for (uint32_t ct : tgt) {
      const int verdict = LabelVerdict(cs, ct);
      if (verdict == 1) {
        ++label_hits_;
        return true;
      }
      pending |= verdict < 0;
    }
    if (pending) undecided.push_back(cs);
  }
  if (undecided.empty()) {
    ++label_hits_;
    return false;
  }

  // Fallback: one multi-source DFS over the condensation from the undecided
  // sources, pruned by ids (descendants only have smaller ids) and by the
  // target post-rank window per labeling.
  ++dfs_fallbacks_;
  const uint32_t min_target = tgt.front();
  // Sorted post ranks of the targets, one list per labeling: a node can be
  // pruned when no target rank falls inside its [low, post] interval.
  std::array<std::vector<uint32_t>, kNumLabelings> tgt_post;
  for (size_t l = 0; l < kNumLabelings; ++l) {
    tgt_post[l].reserve(tgt.size());
    for (uint32_t ct : tgt) tgt_post[l].push_back(labels_[ct].post[l]);
    std::sort(tgt_post[l].begin(), tgt_post[l].end());
  }
  const auto may_reach_some_target = [&](uint32_t c) {
    if (c < min_target) return false;
    for (size_t l = 0; l < kNumLabelings; ++l) {
      const auto it = std::lower_bound(tgt_post[l].begin(), tgt_post[l].end(),
                                       labels_[c].low[l]);
      if (it == tgt_post[l].end() || *it > labels_[c].post[l]) return false;
    }
    return true;
  };

  if (++visit_version_ == 0) {  // wrapped: re-zero the marks once
    visit_mark_.assign(num_comps_, 0);
    visit_version_ = 1;
  }
  dfs_stack_.clear();
  for (uint32_t cs : undecided) {
    if (visit_mark_[cs] == visit_version_) continue;
    visit_mark_[cs] = visit_version_;
    dfs_stack_.push_back(cs);
  }
  while (!dfs_stack_.empty()) {
    const uint32_t c = dfs_stack_.back();
    dfs_stack_.pop_back();
    if (std::binary_search(tgt.begin(), tgt.end(), c)) return true;
    for (size_t e = adj_offsets_[c]; e < adj_offsets_[c + 1]; ++e) {
      const uint32_t next = adj_targets_[e];
      if (visit_mark_[next] == visit_version_) continue;
      visit_mark_[next] = visit_version_;
      if (may_reach_some_target(next)) dfs_stack_.push_back(next);
    }
  }
  return false;
}

uint64_t ReachLabels::ReachesAnyWord(std::span<const WordQuestion> questions) {
  PEREACH_CHECK_LE(questions.size(), BitsetSweep::kLanes);
  ScopedExclusiveUse guard(&exclusive_use_);
  ++batch_words_;
  uint64_t result = 0;
  uint64_t sweeping = 0;
  for (size_t li = 0; li < questions.size(); ++li) {
    const WordQuestion& q = questions[li];
    // Empty side: false, no counter — exact parity with the scalar path.
    if (q.sources.empty() || q.targets.empty()) continue;
    const uint64_t lane = uint64_t{1} << li;
    CollectComponents(q.sources, &word_src_);
    CollectComponents(q.targets, &word_tgt_);

    // Same label pass as the scalar path: a certain-positive pair or an
    // all-certain-negative table settles the lane without touching the
    // sweep; only sources with an undecided pair get seeded.
    bool positive = false;
    word_pending_.clear();
    for (const uint32_t cs : word_src_) {
      bool pending = false;
      for (const uint32_t ct : word_tgt_) {
        const int verdict = LabelVerdict(cs, ct);
        if (verdict == 1) {
          positive = true;
          break;
        }
        pending |= verdict < 0;
      }
      if (positive) break;
      if (pending) word_pending_.push_back(cs);
    }
    if (positive) {
      ++label_hits_;
      result |= lane;
      continue;
    }
    if (word_pending_.empty()) {
      ++label_hits_;
      continue;
    }
    for (const uint32_t cs : word_pending_) sweep_.SeedSources(cs, lane);
    for (const uint32_t ct : word_tgt_) sweep_.SeedTargets(ct, lane);
    sweeping |= lane;
  }

  if (sweeping != 0) {
    ++sweep_count_;
    sweep_lanes_ += static_cast<size_t>(__builtin_popcountll(sweeping));
    result |= sweep_.Run(adj_offsets_, adj_targets_, sweeping);
    sweep_depth_ += sweep_.last_depth();
  }
  return result;
}

size_t ReachLabels::ByteSize() const {
  return component_of_.size() * sizeof(uint32_t) +
         adj_offsets_.size() * sizeof(size_t) +
         adj_targets_.size() * sizeof(uint32_t) +
         labels_.size() * sizeof(CompLabel);
}

}  // namespace pereach
