#include "src/engine/fragment_context.h"

namespace pereach {

namespace {
constexpr size_t kRowBlockBits = 4096;
}  // namespace

const Condensation& FragmentContext::cond(const Fragment& f) {
  if (!cond_.has_value()) {
    cond_ = Condense(f.local_graph());
    ++section_builds_;
  }
  return *cond_;
}

void FragmentContext::EnsureOset(const Fragment& f) {
  if (oset_built_) return;
  oset_locals_.reserve(f.num_virtual());
  oset_globals_.reserve(f.num_virtual());
  oset_index_.reserve(f.num_virtual());
  for (NodeId v = static_cast<NodeId>(f.num_local());
       v < f.local_graph().NumNodes(); ++v) {
    const NodeId global = f.ToGlobal(v);
    oset_index_.emplace(global, static_cast<uint32_t>(oset_locals_.size()));
    oset_locals_.push_back(v);
    oset_globals_.push_back(global);
  }
  oset_built_ = true;
  ++section_builds_;
}

const std::vector<NodeId>& FragmentContext::oset_locals(const Fragment& f) {
  EnsureOset(f);
  return oset_locals_;
}

const std::vector<NodeId>& FragmentContext::oset_globals(const Fragment& f) {
  EnsureOset(f);
  return oset_globals_;
}

const std::vector<uint32_t>& FragmentContext::oset_comp(const Fragment& f) {
  if (oset_comp_.empty() && f.num_virtual() > 0) {
    EnsureOset(f);
    const Condensation& c = cond(f);
    oset_comp_.reserve(oset_locals_.size());
    for (NodeId v : oset_locals_) {
      oset_comp_.push_back(c.scc.component_of[v]);
    }
  }
  return oset_comp_;
}

uint32_t FragmentContext::OsetIndexOf(NodeId global) const {
  const auto it = oset_index_.find(global);
  return it == oset_index_.end() ? kNoIndex : it->second;
}

const FragmentContext::ReachRows& FragmentContext::reach_rows(
    const Fragment& f) {
  if (!rows_.has_value()) {
    EnsureOset(f);
    const Condensation& c = cond(f);
    ReachRows rows;
    // Dense group ids in first-appearance order over in_nodes() — the same
    // rule ForEachReachableTargetGrouped applies, so its emitted group ids
    // line up with these.
    std::unordered_map<uint32_t, uint32_t> group_of_comp;
    rows.in_group.reserve(f.in_nodes().size());
    for (NodeId in : f.in_nodes()) {
      const uint32_t comp = c.scc.component_of[in];
      const auto [it, inserted] = group_of_comp.emplace(
          comp, static_cast<uint32_t>(rows.group_rep.size()));
      if (inserted) {
        rows.group_rep.push_back(in);
        rows.group_comp.push_back(comp);
      }
      rows.in_group.push_back(it->second);
    }
    rows.rows.resize(rows.group_rep.size());
    if (!oset_locals_.empty()) {
      const std::vector<uint32_t> sweep_groups = ForEachReachableTargetGrouped(
          c, f.in_nodes(), oset_locals_, kRowBlockBits,
          [&rows](uint32_t group, uint32_t oset_idx) {
            rows.rows[group].push_back(oset_idx);
          });
      PEREACH_CHECK(sweep_groups == rows.in_group);
    }
    rows_ = std::move(rows);
    ++section_builds_;
  }
  return *rows_;
}

const FragmentContext::DistRows& FragmentContext::dist_rows(
    const Fragment& f) {
  if (!dist_rows_.has_value()) {
    EnsureOset(f);
    DistRows rows;
    rows.oset_globals = oset_globals_;
    rows.offsets.reserve(f.in_nodes().size() + 1);
    rows.offsets.push_back(0);
    // One unbounded BFS per in-node, read at the oset: the s-side sweep's
    // computation (EncodeDistSweepFrame) without its bound.
    for (NodeId in : f.in_nodes()) {
      rows.in_globals.push_back(f.ToGlobal(in));
      const std::vector<uint32_t> from_in = BfsDistances(f.local_graph(), in);
      for (uint32_t j = 0; j < oset_locals_.size(); ++j) {
        const uint32_t hops = from_in[oset_locals_[j]];
        if (hops == kInfDistance) continue;
        rows.targets.push_back(j);
        rows.hops.push_back(hops);
      }
      rows.offsets.push_back(rows.targets.size());
    }
    dist_rows_ = std::move(rows);
    ++section_builds_;
  }
  return *dist_rows_;
}

const LabelIndex& FragmentContext::label_index(const Fragment& f) {
  if (!label_index_.has_value()) {
    label_index_ = LabelIndex::Build(f.local_graph());
    ++section_builds_;
  }
  return *label_index_;
}

void FragmentContext::BeginRpqRound() {
  rpq_round_start_tick_ = rpq_tick_ + 1;
  // A previous round with more distinct automata than the cap overshot
  // (its products were pinned); nothing is pinned anymore, so trim.
  while (rpq_products_.size() > rpq_cache_cap_ && EvictRpqLru()) {
  }
}

bool FragmentContext::EvictRpqLru() {
  auto victim = rpq_products_.end();
  for (auto slot = rpq_products_.begin(); slot != rpq_products_.end();
       ++slot) {
    if (slot->second.last_used >= rpq_round_start_tick_) continue;  // pinned
    if (victim == rpq_products_.end() ||
        slot->second.last_used < victim->second.last_used) {
      victim = slot;
    }
  }
  if (victim == rpq_products_.end()) return false;
  rpq_products_.erase(victim);
  ++rpq_evictions_;
  return true;
}

const FragmentContext::RpqProduct& FragmentContext::rpq_product(
    const Fragment& f, const std::string& signature_key,
    const QueryAutomaton& canonical) {
  const auto it = rpq_products_.find(signature_key);
  if (it != rpq_products_.end()) {
    it->second.last_used = ++rpq_tick_;
    return *it->second.product;
  }
  if (rpq_products_.size() >= rpq_cache_cap_) EvictRpqLru();

  const Graph& g = f.local_graph();
  const size_t n = g.NumNodes();
  const LabelIndex& labels = label_index(f);
  auto p = std::make_unique<RpqProduct>(canonical);

  // Compatibility mask per node: interior states matching the node's label,
  // plus u_t everywhere — any node may be some query's target, and an edge
  // x -> w with u_t in out_mask(q_x) accepts at w whichever query asks —
  // and u_s at local nodes, the start pair of any query sourced there.
  // (w, u_t) has no out-transitions and (v, u_s) no in-transitions, so a
  // path from (s, u_s) to (t, u_t) runs through interior pairs only.
  constexpr uint64_t kStartBit = uint64_t{1} << QueryAutomaton::kStart;
  constexpr uint64_t kFinalBit = uint64_t{1} << QueryAutomaton::kFinal;
  p->compat.assign(n, kFinalBit);
  for (const auto& [label, nodes] : labels.groups) {
    const uint64_t mask = canonical.StatesWithLabel(label);
    for (NodeId v : nodes) p->compat[v] |= mask;
  }
  for (NodeId v = 0; v < f.num_local(); ++v) p->compat[v] |= kStartBit;

  // Dense product ids: pid(v, q) = offset[v] + rank of q in compat[v] —
  // the same layout LocalEvalRegular uses.
  p->pid_offset.assign(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    p->pid_offset[v + 1] =
        p->pid_offset[v] +
        static_cast<uint64_t>(__builtin_popcountll(p->compat[v]));
  }
  const uint64_t num_product = p->pid_offset[n];
  PEREACH_CHECK_LT(num_product, uint64_t{1} << 32);

  // Materialize the product graph F_i x G_q and condense it once; every
  // query over this automaton reuses the condensation. No transition enters
  // u_s: a start pair is only ever a query's source.
  GraphBuilder pb;
  pb.AddNodes(static_cast<size_t>(num_product));
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : g.OutNeighbors(v)) {
      uint64_t qs = p->compat[v];
      while (qs != 0) {
        const uint32_t q = static_cast<uint32_t>(__builtin_ctzll(qs));
        qs &= qs - 1;
        uint64_t succs = canonical.out_mask(q) & p->compat[w] & ~kStartBit;
        const NodeId from = p->pid(v, q);
        while (succs != 0) {
          const uint32_t q2 = static_cast<uint32_t>(__builtin_ctzll(succs));
          succs &= succs - 1;
          pb.AddEdge(from, p->pid(w, q2));
        }
      }
    }
  }
  p->cond = Condense(std::move(pb).Build());

  ++section_builds_;
  RpqCacheSlot slot;
  slot.product = std::move(p);
  slot.last_used = ++rpq_tick_;
  return *rpq_products_.emplace(signature_key, std::move(slot))
              .first->second.product;
}

}  // namespace pereach
