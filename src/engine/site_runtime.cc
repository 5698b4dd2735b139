#include "src/engine/site_runtime.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "src/engine/query_engine.h"
#include "src/index/boundary_index.h"

namespace pereach {

namespace {

/// Rebases a partial answer produced against its own query-local oset table
/// onto the fragment's shared (batch-wide) table; the answer's own table is
/// dropped (batch bodies serialize against the shared one).
ReachPartialAnswer RebaseOntoSharedOset(ReachPartialAnswer pa,
                                        const FragmentContext& ctx) {
  for (ReachPartialAnswer::Equation& eq : pa.equations) {
    for (uint32_t& dep : eq.deps) {
      const uint32_t idx = ctx.OsetIndexOf(pa.oset_globals[dep]);
      PEREACH_CHECK_NE(idx, FragmentContext::kNoIndex);
      dep = idx;
    }
    // The remap is order-preserving (a possible local-t entry at index 0 of
    // the query table is never a dep, and both tables list virtual nodes in
    // ascending local-id order), so no re-sort is needed.
    PEREACH_CHECK(std::is_sorted(eq.deps.begin(), eq.deps.end()));
  }
  pa.oset_globals.clear();
  return pa;
}

// The two query-dependent condensation sweeps of the closure-form BES
// frames. Both rely on component ids being reverse topological: every edge
// goes to a smaller id.

/// Components that locally reach `t_comp` (ascending scan).
std::vector<bool> ComponentsReaching(const Condensation& cond,
                                     uint32_t t_comp) {
  std::vector<bool> reaches(cond.scc.num_components, false);
  reaches[t_comp] = true;
  for (uint32_t c = t_comp + 1; c < cond.scc.num_components; ++c) {
    bool r = false;
    for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1] && !r; ++e) {
      r = reaches[cond.targets[e]];
    }
    reaches[c] = r;
  }
  return reaches;
}

/// Components locally reachable from `s_comp` (descending scan).
std::vector<bool> ComponentsReachableFrom(const Condensation& cond,
                                          uint32_t s_comp) {
  std::vector<bool> reachable(cond.scc.num_components, false);
  reachable[s_comp] = true;
  for (uint32_t c = s_comp + 1; c-- > 0;) {
    if (!reachable[c]) continue;
    for (size_t e = cond.offsets[c]; e < cond.offsets[c + 1]; ++e) {
      reachable[cond.targets[e]] = true;
    }
  }
  return reachable;
}

}  // namespace

ReachPartialAnswer ReachFromCachedRows(const Fragment& f, FragmentContext* ctx,
                                       NodeId s, NodeId t) {
  const FragmentContext::ReachRows& rows = ctx->reach_rows(f);
  const Condensation& cond = ctx->cond(f);
  const std::vector<uint32_t>& oset_comp = ctx->oset_comp(f);

  ReachPartialAnswer pa;
  pa.site = f.site();

  // t-side query-dependent piece: which components reach t locally (only
  // meaningful when t is stored here; a virtual copy of t is an oset entry).
  const uint32_t t_idx = ctx->OsetIndexOf(t);
  const bool t_local = f.Contains(t);
  uint32_t t_comp = 0;
  std::vector<bool> reaches_t;
  if (t_local) {
    t_comp = cond.scc.component_of[f.ToLocal(t)];
    reaches_t = ComponentsReaching(cond, t_comp);
  }

  pa.equations.reserve(rows.group_rep.size() + 1);
  for (size_t g = 0; g < rows.group_rep.size(); ++g) {
    ReachPartialAnswer::Equation eq;
    eq.var = f.ToGlobal(rows.group_rep[g]);
    eq.has_true = t_local && reaches_t[rows.group_comp[g]];
    eq.deps.reserve(rows.rows[g].size());
    for (uint32_t idx : rows.rows[g]) {
      if (idx == t_idx) {
        eq.has_true = true;  // reaching the virtual copy of t answers q
      } else {
        eq.deps.push_back(idx);
      }
    }
    pa.equations.push_back(std::move(eq));
  }
  for (size_t i = 0; i < rows.in_group.size(); ++i) {
    const NodeId in = f.in_nodes()[i];
    const uint32_t g = rows.in_group[i];
    if (rows.group_rep[g] == in) continue;
    pa.aliases.push_back({/*rep_is_aux=*/false, f.ToGlobal(in),
                          f.ToGlobal(rows.group_rep[g])});
  }

  // s-side query-dependent piece: s's own equation when s is stored here and
  // is not already covered by an in-node group.
  if (f.Contains(s)) {
    const NodeId local_s = f.ToLocal(s);
    if (!std::binary_search(f.in_nodes().begin(), f.in_nodes().end(),
                            local_s)) {
      const std::vector<bool> reachable =
          ComponentsReachableFrom(cond, cond.scc.component_of[local_s]);
      ReachPartialAnswer::Equation eq;
      eq.var = s;
      eq.has_true = t_local && reachable[t_comp];
      for (uint32_t j = 0; j < oset_comp.size(); ++j) {
        if (!reachable[oset_comp[j]]) continue;
        if (j == t_idx) {
          eq.has_true = true;
        } else {
          eq.deps.push_back(j);
        }
      }
      pa.equations.push_back(std::move(eq));
    }
  }
  return pa;
}

namespace {

/// The endpoint frame of every indexed class: a flag byte, then `s_comp`
/// and/or `t_comp` (a component of the rows the refresh round shipped)
/// where s and/or t are stored here; the coordinator's glued graph does the
/// rest. At most 1 + 2 * 5 bytes, whatever the fragment's boundary.
template <typename SComp, typename TComp>
void PutEndpointFrame(const Fragment& f, NodeId s, NodeId t, SComp s_comp,
                      TComp t_comp, Encoder* body) {
  const bool s_here = f.Contains(s);
  const bool t_here = f.Contains(t);
  uint8_t flags = 0;
  if (s_here) flags |= kFrameHasS;
  if (t_here) flags |= kFrameHasT;
  body->PutU8(flags);
  if (s_here) body->PutVarint(s_comp(f.ToLocal(s)));
  if (t_here) body->PutVarint(t_comp(f.ToLocal(t)));
}

}  // namespace

void EncodeBoundarySweepFrame(const Fragment& f, FragmentContext* ctx,
                              NodeId s, NodeId t, Encoder* body) {
  const auto comp_of = [&](NodeId v) {
    return ctx->cond(f).scc.component_of[v];
  };
  PutEndpointFrame(f, s, t, comp_of, comp_of, body);
}

void EncodeDistSweepFrame(const Fragment& f, FragmentContext* /*ctx*/,
                          NodeId s, NodeId t, uint32_t /*bound*/,
                          Encoder* body) {
  const auto local_id = [](NodeId v) { return v; };
  PutEndpointFrame(f, s, t, local_id, local_id, body);
}

void EncodeRpqSweepFrame(const Fragment& f, FragmentContext* /*ctx*/,
                         const FragmentContext::RpqProduct& p, NodeId s,
                         NodeId t, Encoder* body) {
  PutEndpointFrame(
      f, s, t,
      [&p](NodeId v) { return p.CompOfPair(v, QueryAutomaton::kStart); },
      [&p](NodeId v) { return p.CompOfPair(v, QueryAutomaton::kFinal); },
      body);
}

// --- Round dispatch (every backend) -----------------------------------------

namespace {

/// The reach and rpq refresh rounds' reply: a cached condensation with its
/// boundary tables, in the BoundaryRows the coordinator's glued graphs
/// consume. `add_keys(v, &keys, &comps)` appends boundary node v's keys and
/// the component of each.
template <typename AddKeys>
std::vector<uint8_t> EncodeGluedRows(const Fragment& f, FragmentContext* ctx,
                                     const Condensation& cond,
                                     AddKeys add_keys) {
  BoundaryRows out;
  out.offsets = cond.offsets;
  out.targets = cond.targets;
  for (NodeId w : ctx->oset_locals(f)) {
    add_keys(w, &out.oset_keys, &out.oset_comp);
  }
  for (NodeId in : f.in_nodes()) add_keys(in, &out.in_keys, &out.in_comp);
  Encoder reply;
  out.Serialize(&reply);
  return reply.TakeBuffer();
}

/// The reach refresh round's reply: the local condensation, keyed by global
/// id.
std::vector<uint8_t> EncodeReachRows(const Fragment& f, FragmentContext* ctx) {
  const Condensation& cond = ctx->cond(f);
  return EncodeGluedRows(
      f, ctx, cond,
      [&](NodeId v, std::vector<uint64_t>* keys, std::vector<uint32_t>* comps) {
        keys->push_back(f.ToGlobal(v));
        comps->push_back(cond.scc.component_of[v]);
      });
}

/// One automaton's part of the rpq refresh round's reply: `p`'s product
/// condensation, one PackNodeState key per (boundary node, state) pair —
/// u_s left out, since no transition enters it and no glue edge can land on
/// it.
std::vector<uint8_t> EncodeRpqRows(const Fragment& f, FragmentContext* ctx,
                                   const FragmentContext::RpqProduct& p) {
  return EncodeGluedRows(
      f, ctx, p.cond,
      [&](NodeId v, std::vector<uint64_t>* keys, std::vector<uint32_t>* comps) {
        uint64_t qs = p.compat[v] & ~(uint64_t{1} << QueryAutomaton::kStart);
        while (qs != 0) {
          const uint32_t q = static_cast<uint32_t>(__builtin_ctzll(qs));
          qs &= qs - 1;
          keys->push_back(PackNodeState(f.ToGlobal(v), q));
          comps->push_back(p.CompOfPair(v, q));
        }
      });
}

/// The dist refresh round's reply: the fragment's local graph as
/// BoundaryRows.
std::vector<uint8_t> EncodeDistRows(const Fragment& f, FragmentContext* ctx) {
  Encoder reply;
  ctx->dist_rows(f).Serialize(&reply);
  return reply.TakeBuffer();
}

/// A query as decoded from a batch broadcast — Query minus the inline
/// automaton (rpq queries reference the broadcast's automaton table).
struct WireQuery {
  QueryKind kind = QueryKind::kReach;
  NodeId source = 0;
  NodeId target = 0;
  uint32_t bound = 0;
  uint32_t automaton_ref = 0;
};

/// An automaton as decoded from a round broadcast, with the bytes it came
/// in. The coordinator ships canonical automata, whose Serialize bytes are
/// their signature key, so those bytes key the fragment's product cache.
struct WireAutomaton {
  std::string key;
  QueryAutomaton automaton;
};

/// Reads one automaton off `dec`, a decoder over `broadcast`; nullopt once
/// the decoder failed.
std::optional<WireAutomaton> GetAutomaton(
    const std::vector<uint8_t>& broadcast, Decoder* dec) {
  const size_t start = dec->position();
  QueryAutomaton a = QueryAutomaton::Deserialize(dec);
  if (!dec->ok()) return std::nullopt;
  return WireAutomaton{
      std::string(broadcast.begin() + static_cast<ptrdiff_t>(start),
                  broadcast.begin() + static_cast<ptrdiff_t>(dec->position())),
      std::move(a)};
}

/// Decodes a batch broadcast (EncodeBatchBroadcast, DESIGN.md §2.1): the
/// queries, then the automaton table iff a query is regular. Every kind and
/// table reference is checked, and nothing may trail.
Status DecodeBatch(const std::vector<uint8_t>& broadcast,
                   std::vector<WireQuery>* queries,
                   std::vector<WireAutomaton>* automata) {
  Decoder dec(broadcast, Decoder::OnError::kStatus);
  queries->resize(dec.GetCount());
  bool any_rpq = false;
  for (WireQuery& q : *queries) {
    const uint8_t kind = dec.GetU8();
    if (!dec.ok()) return dec.status();
    if (kind > static_cast<uint8_t>(QueryKind::kRpq)) {
      return Status::Corruption("batch broadcast: bad query kind");
    }
    q.kind = static_cast<QueryKind>(kind);
    q.source = static_cast<NodeId>(dec.GetVarint());
    q.target = static_cast<NodeId>(dec.GetVarint());
    if (q.kind == QueryKind::kDist) {
      q.bound = static_cast<uint32_t>(dec.GetVarint());
    }
    if (q.kind == QueryKind::kRpq) {
      q.automaton_ref = static_cast<uint32_t>(dec.GetVarint());
      any_rpq = true;
    }
  }
  if (any_rpq) {
    for (size_t n = dec.GetCount(); n > 0; --n) {
      std::optional<WireAutomaton> a = GetAutomaton(broadcast, &dec);
      if (!a) return dec.status();
      automata->push_back(std::move(*a));
    }
  }
  if (!dec.Done()) {
    return dec.ok() ? Status::Corruption("batch broadcast: trailing bytes")
                    : dec.status();
  }
  for (const WireQuery& q : *queries) {
    if (q.kind == QueryKind::kRpq && q.automaton_ref >= automata->size()) {
      return Status::Corruption("batch broadcast: automaton ref out of range");
    }
  }
  return Status::OK();
}

/// The multiplexed all-sites batch: localEval for every query of the
/// broadcast, partial answers multiplexed into one reply.
Result<std::vector<uint8_t>> RunBatchEval(
    const Fragment& f, FragmentContext* ctx, uint8_t aux,
    const std::vector<uint8_t>& broadcast) {
  if (aux > static_cast<uint8_t>(EquationForm::kDag)) {
    return Status::Corruption("batch round: bad equation form");
  }
  const EquationForm form = static_cast<EquationForm>(aux);
  std::vector<WireQuery> queries;
  std::vector<WireAutomaton> automata;
  Status decoded = DecodeBatch(broadcast, &queries, &automata);
  if (!decoded.ok()) return decoded;
  bool any_reach = false;
  for (const WireQuery& q : queries) any_reach |= q.kind == QueryKind::kReach;

  Encoder reply;
  reply.PutVarint(f.site());
  if (any_reach) {
    const std::vector<NodeId>& shared = ctx->oset_globals(f);
    reply.PutVarint(shared.size());
    for (NodeId g : shared) reply.PutVarint(g);
  }
  for (const WireQuery& q : queries) {
    Encoder body;
    switch (q.kind) {
      case QueryKind::kReach: {
        const ReachPartialAnswer pa =
            form == EquationForm::kClosure
                ? ReachFromCachedRows(f, ctx, q.source, q.target)
                : RebaseOntoSharedOset(
                      LocalEvalReach(f, q.source, q.target, form,
                                     &ctx->cond(f)),
                      *ctx);
        pa.SerializeBody(ctx->oset_globals(f).size(), &body);
        break;
      }
      case QueryKind::kDist:
        LocalEvalDist(f, q.source, q.target, q.bound).Serialize(&body);
        break;
      case QueryKind::kRpq:
        LocalEvalRegular(f, automata[q.automaton_ref].automaton, q.source,
                         q.target, form, &ctx->label_index(f))
            .Serialize(&body);
        break;
    }
    reply.PutFrame(body.buffer());
  }
  return reply.TakeBuffer();
}

/// The refresh round: one rows frame per index entry of this site's
/// payload, in payload order. The payload lists only this site's entries:
///   varint n · { u8 index kind · [automaton] }ⁿ
/// where the kind is the QueryKind the index answers and an rpq index
/// carries its canonical automaton.
Result<std::vector<uint8_t>> RunIndexRows(const Fragment& f,
                                          FragmentContext* ctx,
                                          const std::vector<uint8_t>& payload) {
  Decoder dec(payload, Decoder::OnError::kStatus);
  std::vector<std::pair<QueryKind, std::optional<WireAutomaton>>> entries;
  for (size_t n = dec.GetCount(); n > 0; --n) {
    const uint8_t kind = dec.GetU8();
    if (!dec.ok()) return dec.status();
    if (kind > static_cast<uint8_t>(QueryKind::kRpq)) {
      return Status::Corruption("rows round: bad index kind");
    }
    std::optional<WireAutomaton> automaton;
    if (kind == static_cast<uint8_t>(QueryKind::kRpq)) {
      automaton = GetAutomaton(payload, &dec);
      if (!automaton) return dec.status();
    }
    entries.emplace_back(static_cast<QueryKind>(kind), std::move(automaton));
  }
  if (!dec.Done()) return Status::Corruption("rows round: trailing bytes");

  ctx->BeginRpqRound();
  Encoder reply;
  for (const auto& [kind, a] : entries) {
    switch (kind) {
      case QueryKind::kReach:
        reply.PutFrame(EncodeReachRows(f, ctx));
        break;
      case QueryKind::kDist:
        reply.PutFrame(EncodeDistRows(f, ctx));
        break;
      case QueryKind::kRpq:
        reply.PutFrame(
            EncodeRpqRows(f, ctx, ctx->rpq_product(f, a->key, a->automaton)));
        break;
    }
  }
  return reply.TakeBuffer();
}

/// The sweep round: one endpoint frame per query of this site's sub-batch
/// (the batch broadcast format, holding the queries the site stores an
/// endpoint of), whatever its class.
Result<std::vector<uint8_t>> RunIndexSweep(
    const Fragment& f, FragmentContext* ctx,
    const std::vector<uint8_t>& payload) {
  std::vector<WireQuery> queries;
  std::vector<WireAutomaton> automata;
  Status decoded = DecodeBatch(payload, &queries, &automata);
  if (!decoded.ok()) return decoded;

  if (!automata.empty()) ctx->BeginRpqRound();
  Encoder reply;
  for (const WireQuery& q : queries) {
    Encoder body;
    switch (q.kind) {
      case QueryKind::kReach:
        EncodeBoundarySweepFrame(f, ctx, q.source, q.target, &body);
        break;
      case QueryKind::kDist:
        EncodeDistSweepFrame(f, ctx, q.source, q.target, q.bound, &body);
        break;
      case QueryKind::kRpq: {
        const WireAutomaton& a = automata[q.automaton_ref];
        EncodeRpqSweepFrame(f, ctx, ctx->rpq_product(f, a.key, a.automaton),
                            q.source, q.target, &body);
        break;
      }
    }
    reply.PutFrame(body.buffer());
  }
  return reply.TakeBuffer();
}

}  // namespace

Result<std::vector<uint8_t>> RunSiteRound(
    const Fragment& f, FragmentContext* ctx, RoundKind kind, uint8_t aux,
    const std::vector<uint8_t>& payload) {
  switch (kind) {
    case RoundKind::kBatchEval:
      return RunBatchEval(f, ctx, aux, payload);
    case RoundKind::kIndexRows:
      return RunIndexRows(f, ctx, payload);
    case RoundKind::kIndexSweep:
      return RunIndexSweep(f, ctx, payload);
  }
  return Status::Corruption("unknown round kind");
}

}  // namespace pereach
