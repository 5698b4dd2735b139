#include "src/engine/partial_eval_engine.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>

#include "src/bes/bes.h"
#include "src/bes/distance_system.h"
#include "src/engine/site_runtime.h"
#include "src/regex/canonical.h"
#include "src/util/timer.h"

namespace pereach {

// The per-site half of every round below is one RoundSpec, evaluated by
// site_runtime::RunSiteRound on every backend: in process over this
// engine's context cache (kSim, and kSocket's degraded sites) or on a
// worker. One definition is what keeps the backends bit-identical.
//
// Every round goes through Cluster::TryRound/TryRoundAll and every reply
// byte is decoded TOLERANTLY (Decoder::OnError::kStatus): a serving
// transport can fail or frame garbage, and the contract is that this fails
// the batch with a Status — rejecting its queries — never the process.
// The indexed path validates reply CONTENT too (the rows decoder, the
// sweep frames in RunIndexed), so a CRC-valid reply naming a component past
// its fragment's count is rejected the same way.

namespace {

/// True for queries the coordinator answers without touching any site.
/// Regular queries are never trivial: q_rr(s, s, R) asks for a cycle.
bool IsTrivial(const Query& q) {
  return (q.kind == QueryKind::kReach || q.kind == QueryKind::kDist) &&
         q.source == q.target;
}

Status MalformedReply(const char* what) {
  return Status::Corruption(std::string("transport: malformed ") + what);
}

/// Splits a reply into exactly `count` frame decoders (viewing the reply
/// buffer). False when the reply holds fewer, more or malformed frames.
bool SplitFrames(const std::vector<uint8_t>& reply, size_t count,
                 std::vector<Decoder>* frames) {
  Decoder dec(reply, Decoder::OnError::kStatus);
  frames->clear();
  frames->reserve(count);
  for (size_t i = 0; i < count; ++i) frames->push_back(dec.GetFrame());
  return dec.Done();
}

/// Decodes a query's endpoint nodes from its sweep frames, whatever its
/// class: the s-side frame (from s's site) lists s's component first, the
/// t-side frame (t's site; the same decoder when one site stores both)
/// lists t's component last. A reply is not trusted: false unless both
/// flags are set and each component id names a node of `index`.
bool DecodeEndpointNodes(const GluedFragments& index, SiteId s_site,
                         SiteId t_site, Decoder* s_frame, Decoder* t_frame,
                         uint32_t* s_node, uint32_t* t_node) {
  const uint8_t s_flags = s_frame->GetU8();
  *s_node = index.Node(s_site, s_frame->GetVarint());
  const uint8_t t_flags = t_frame == s_frame ? s_flags : t_frame->GetU8();
  *t_node = index.Node(t_site, t_frame->GetVarint());
  return (s_flags & kFrameHasS) && (t_flags & kFrameHasT) && s_frame->ok() &&
         t_frame->ok() && *s_node != GluedFragments::kNoNode &&
         *t_node != GluedFragments::kNoNode;
}

/// The automaton table of the batch `wire`, with no bytes: every regular
/// query's automaton canonicalized once, language-equal ones deduplicated
/// by canonical signature into one entry, in first-use order.
BatchBroadcast CanonicalAutomata(std::span<const Query> queries,
                                 const std::vector<size_t>& wire) {
  BatchBroadcast out;
  out.automaton_ref.assign(wire.size(), 0);
  std::unordered_map<std::string, uint32_t> ref_of;
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const Query& q = queries[wire[wi]];
    if (q.kind != QueryKind::kRpq) continue;
    CanonicalAutomaton canon = Canonicalize(*q.automaton);
    const auto [it, inserted] = ref_of.emplace(
        canon.signature.key, static_cast<uint32_t>(out.automata.size()));
    if (inserted) out.automata.push_back(std::move(canon));
    out.automaton_ref[wi] = it->second;
  }
  return out;
}

/// The batch broadcast of the queries wire[wi], wi in `subset` (ascending),
/// carrying only the automata of `table` they reference, renumbered in
/// first-use order: exactly EncodeBatchBroadcast's bytes for those queries,
/// without canonicalizing any automaton again. Each automaton keeps its
/// canonical bytes, which key the sites' product caches.
std::vector<uint8_t> EncodeSubBatch(std::span<const Query> queries,
                                    const std::vector<size_t>& wire,
                                    const BatchBroadcast& table,
                                    const std::vector<size_t>& subset) {
  constexpr uint32_t kUnused = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> local_ref(table.automata.size(), kUnused);
  std::vector<uint32_t> used;  // table indices, in first-use order
  Encoder enc;
  enc.PutVarint(subset.size());
  for (const size_t wi : subset) {
    const Query& q = queries[wire[wi]];
    q.SerializeHeader(&enc);
    if (q.kind != QueryKind::kRpq) continue;
    uint32_t& ref = local_ref[table.automaton_ref[wi]];
    if (ref == kUnused) {
      ref = static_cast<uint32_t>(used.size());
      used.push_back(table.automaton_ref[wi]);
    }
    enc.PutVarint(ref);
  }
  if (!used.empty()) {
    enc.PutVarint(used.size());
    for (const uint32_t r : used) table.automata[r].automaton.Serialize(&enc);
  }
  return enc.TakeBuffer();
}

/// One standing index an indexed batch routes queries to: the reach index,
/// the dist index, or one automaton's rpq entry.
struct IndexEntry {
  QueryKind kind = QueryKind::kReach;
  GluedFragments* rows = nullptr;       // every class
  BoundaryReachIndex* glued = nullptr;  // reach and rpq
  const CanonicalAutomaton* automaton = nullptr;  // rpq
  std::vector<SiteId> dirty = {};
};

}  // namespace

BatchBroadcast EncodeBatchBroadcast(std::span<const Query> queries,
                                    const std::vector<size_t>& wire) {
  BatchBroadcast out = CanonicalAutomata(queries, wire);
  std::vector<size_t> all(wire.size());
  std::iota(all.begin(), all.end(), 0);
  out.bytes = EncodeSubBatch(queries, wire, out, all);
  return out;
}

PartialEvalEngine::PartialEvalEngine(Cluster* cluster,
                                     PartialEvalOptions options)
    : QueryEngine(cluster),
      options_(options),
      contexts_(&cluster->fragmentation(),
                std::max<size_t>(1, options.rpq_cache_entries)) {}

Status PartialEvalEngine::RunBatch(std::span<const Query> queries,
                                   std::vector<QueryAnswer>* answers) {
  answers->resize(queries.size());

  // Coordinator-side answers need no site visit; everything else goes on the
  // wire as one multiplexed broadcast — except queries whose class runs
  // under a boundary index, which share the indexed round pair.
  const auto is_indexed = [this](QueryKind kind) {
    switch (kind) {
      case QueryKind::kReach:
        return options_.reach_path == ReachAnswerPath::kBoundaryIndex;
      case QueryKind::kDist:
        return options_.dist_path == DistAnswerPath::kBoundaryIndex;
      case QueryKind::kRpq:
        return options_.rpq_path == RpqAnswerPath::kBoundaryIndex;
    }
    return false;
  };
  std::vector<size_t> wire;
  std::vector<size_t> indexed;
  wire.reserve(queries.size());
  bool any_reach = false;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    if (IsTrivial(q)) {
      (*answers)[qi].reachable = true;
      (*answers)[qi].distance = 0;
      continue;
    }
    PEREACH_CHECK(q.well_formed());
    if (is_indexed(q.kind)) {
      indexed.push_back(qi);
      continue;
    }
    any_reach |= q.kind == QueryKind::kReach;
    wire.push_back(qi);
  }
  if (!indexed.empty()) {
    Status s = RunIndexed(queries, indexed, answers);
    if (!s.ok()) return s;
  }
  if (wire.empty()) return Status::OK();

  // One round: every site runs localEval for all k queries in a single
  // visit and multiplexes the partial answers into one reply — shared oset
  // table first (reach frames reference it), then one frame per query.
  RoundSpec spec;
  spec.kind = RoundKind::kBatchEval;
  spec.aux = static_cast<uint8_t>(options_.form);
  spec.payloads.assign(cluster_->fragmentation().num_fragments(),
                       EncodeBatchBroadcast(queries, wire).bytes);
  Result<std::vector<std::vector<uint8_t>>> round =
      cluster_->TryRoundAll(spec, &contexts_);
  if (!round.ok()) return round.status();
  const std::vector<std::vector<uint8_t>>& replies = round.value();

  // Demultiplex: split every site reply into its shared oset table and one
  // frame decoder per query (frames view the reply buffers, no copies).
  StopWatch assemble_watch;
  std::vector<SiteId> reply_site(replies.size());
  std::vector<std::vector<NodeId>> reply_oset(replies.size());
  std::vector<std::vector<Decoder>> frames(replies.size());
  for (size_t ri = 0; ri < replies.size(); ++ri) {
    Decoder dec(replies[ri], Decoder::OnError::kStatus);
    reply_site[ri] = static_cast<SiteId>(dec.GetVarint());
    if (any_reach) {
      reply_oset[ri].resize(dec.GetCount());
      for (NodeId& g : reply_oset[ri]) g = static_cast<NodeId>(dec.GetVarint());
    }
    frames[ri].reserve(wire.size());
    for (size_t wi = 0; wi < wire.size(); ++wi) {
      frames[ri].push_back(dec.GetFrame());
    }
    if (!dec.Done() || reply_site[ri] >= replies.size()) {
      return MalformedReply("site reply payload");
    }
  }

  // Assemble and solve one query at a time (evalDG / evalDGd / evalDGr), so
  // a large batch never holds more than one equation system live.
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const Query& q = queries[wire[wi]];
    QueryAnswer& answer = (*answers)[wire[wi]];
    if (q.kind == QueryKind::kDist) {
      DistanceEquationSystem dist;
      for (size_t ri = 0; ri < replies.size(); ++ri) {
        Decoder& frame = frames[ri][wi];
        DistPartialAnswer pa = DistPartialAnswer::Deserialize(&frame);
        if (!frame.Done()) return MalformedReply("site reply frame");
        pa.AddToSystem(&dist);
      }
      // evalDGd's least fixpoint, reported only within the bound (the
      // QueryAnswer contract): above it the value is a minimum over
      // segment-bounded routes, not the distance.
      const uint64_t d = dist.Evaluate(q.source);
      answer.reachable = d <= q.bound;
      answer.distance = answer.reachable ? d : kInfWeight;
      continue;
    }
    BooleanEquationSystem bes;
    for (size_t ri = 0; ri < replies.size(); ++ri) {
      Decoder& frame = frames[ri][wi];
      if (q.kind == QueryKind::kReach) {
        ReachPartialAnswer pa =
            ReachPartialAnswer::DeserializeBody(&frame, reply_site[ri]);
        if (!frame.Done()) return MalformedReply("site reply frame");
        pa.AddToBes(reply_oset[ri], &bes);
      } else {
        RegularPartialAnswer pa = RegularPartialAnswer::Deserialize(&frame);
        if (!frame.Done()) return MalformedReply("site reply frame");
        pa.AddToBes(&bes);
      }
    }
    answer.reachable =
        q.kind == QueryKind::kReach
            ? bes.Evaluate(q.source)
            : bes.Evaluate(PackNodeState(q.source, QueryAutomaton::kStart));
  }
  cluster_->AddCoordinatorWorkMs(assemble_watch.ElapsedMs());
  return Status::OK();
}

Status PartialEvalEngine::RunIndexed(std::span<const Query> queries,
                                     const std::vector<size_t>& wire,
                                     std::vector<QueryAnswer>* answers) {
  const Fragmentation& frag = cluster_->fragmentation();
  const size_t num_fragments = frag.num_fragments();
  const BatchBroadcast table = CanonicalAutomata(queries, wire);

  // Route every query to its standing index, built on first use: entry 0 is
  // the reach index, entry 1 the dist index, entry 2 + r the rpq entry of
  // the batch's automaton r (one per canonical signature).
  const auto has = [&](QueryKind kind) {
    return std::any_of(wire.begin(), wire.end(),
                       [&](size_t qi) { return queries[qi].kind == kind; });
  };
  std::vector<IndexEntry> entries(2 + table.automata.size());
  if (has(QueryKind::kReach)) {
    if (!boundary_) {
      boundary_ = std::make_unique<BoundaryReachIndex>(num_fragments);
    }
    entries[0] = {.kind = QueryKind::kReach,
                  .rows = boundary_.get(),
                  .glued = boundary_.get()};
  }
  if (has(QueryKind::kDist)) {
    if (!boundary_dist_) {
      boundary_dist_ = std::make_unique<BoundaryDistIndex>(num_fragments);
    }
    entries[1] = {.kind = QueryKind::kDist, .rows = boundary_dist_.get()};
  }
  if (!table.automata.empty()) {
    if (!boundary_rpq_) {
      boundary_rpq_ = std::make_unique<BoundaryRpqIndex>(
          num_fragments, options_.rpq_cache_entries);
    }
    boundary_rpq_->BeginBatch();
    for (size_t r = 0; r < table.automata.size(); ++r) {
      BoundaryReachIndex* glued =
          &boundary_rpq_->GetEntry(table.automata[r].signature);
      entries[2 + r] = {.kind = QueryKind::kRpq,
                        .rows = glued,
                        .glued = glued,
                        .automaton = &table.automata[r]};
    }
  }
  const auto entry_index = [&](size_t wi) -> size_t {
    const QueryKind kind = queries[wire[wi]].kind;
    return kind == QueryKind::kRpq ? 2 + table.automaton_ref[wi]
                                   : static_cast<size_t>(kind);
  };

  // Refresh round: fetch the rows of every dirty (index, fragment) pair of
  // the batch in ONE round — every fragment on an index's first use,
  // exactly the update-touched ones afterwards (InvalidateFragment marks
  // them). Each dirty site is sent only its own index entries — a kind and,
  // for an rpq entry, its canonical automaton — and replies with one rows
  // frame per entry, in payload order.
  std::vector<std::vector<size_t>> site_entries(num_fragments);
  for (size_t ei = 0; ei < entries.size(); ++ei) {
    IndexEntry& e = entries[ei];
    if (e.rows != nullptr) e.dirty = e.rows->DirtySites();
    for (SiteId site : e.dirty) site_entries[site].push_back(ei);
  }
  std::vector<SiteId> refresh_sites;
  RoundSpec refresh;
  refresh.kind = RoundKind::kIndexRows;
  for (SiteId site = 0; site < num_fragments; ++site) {
    if (site_entries[site].empty()) continue;
    refresh_sites.push_back(site);
    Encoder payload;
    payload.PutVarint(site_entries[site].size());
    for (const size_t ei : site_entries[site]) {
      const IndexEntry& e = entries[ei];
      payload.PutU8(static_cast<uint8_t>(e.kind));
      if (e.automaton != nullptr) e.automaton->automaton.Serialize(&payload);
    }
    refresh.payloads.push_back(payload.TakeBuffer());
  }
  StopWatch build_watch;
  if (!refresh_sites.empty()) {
    Result<std::vector<std::vector<uint8_t>>> round =
        cluster_->TryRound(refresh_sites, refresh, &contexts_);
    if (!round.ok()) return round.status();
    build_watch.Restart();
    // Split every reply before installing any rows: a reply with a frame
    // missing or to spare installs nothing, so its site stays dirty in
    // every index and the next batch asks it again.
    std::vector<std::vector<Decoder>> frames(refresh_sites.size());
    for (size_t ri = 0; ri < refresh_sites.size(); ++ri) {
      if (!SplitFrames(round.value()[ri],
                       site_entries[refresh_sites[ri]].size(), &frames[ri])) {
        return MalformedReply("index rows reply");
      }
    }
    for (size_t ri = 0; ri < refresh_sites.size(); ++ri) {
      const SiteId site = refresh_sites[ri];
      for (size_t j = 0; j < frames[ri].size(); ++j) {
        Decoder& frame = frames[ri][j];
        BoundaryRows rows = BoundaryRows::Deserialize(&frame);
        if (!frame.Done()) return MalformedReply("boundary rows");
        entries[site_entries[site][j]].rows->SetFragmentRows(site,
                                                             std::move(rows));
      }
    }
  }
  // Rebuild every index whose rows changed: this round's, and any a
  // rejected batch installed before its reply failed to decode.
  for (IndexEntry& e : entries) {
    if (e.rows != nullptr) e.rows->Ensure();
  }
  if (!refresh_sites.empty()) {
    cluster_->AddCoordinatorWorkMs(build_watch.ElapsedMs());
  }

  // Sweep round over the ENDPOINT fragments only — the standing indexes
  // replace the all-sites equation broadcast. Each endpoint site is sent
  // the sub-batch of the queries it stores an endpoint of, in batch order,
  // and answers each with one endpoint frame: a component id per endpoint
  // it stores.
  std::vector<std::vector<size_t>> site_queries(num_fragments);
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const Query& q = queries[wire[wi]];
    const SiteId s_site = frag.site_of(q.source);
    const SiteId t_site = frag.site_of(q.target);
    site_queries[s_site].push_back(wi);
    if (t_site != s_site) site_queries[t_site].push_back(wi);
  }
  std::vector<SiteId> sites;
  RoundSpec sweep;
  sweep.kind = RoundKind::kIndexSweep;
  for (SiteId site = 0; site < num_fragments; ++site) {
    if (site_queries[site].empty()) continue;
    sites.push_back(site);
    sweep.payloads.push_back(
        EncodeSubBatch(queries, wire, table, site_queries[site]));
  }
  Result<std::vector<std::vector<uint8_t>>> round =
      cluster_->TryRound(sites, sweep, &contexts_);
  if (!round.ok()) return round.status();

  // Assemble. A dist query is one bounded bidirectional BFS over the glued
  // local graphs. A reach or rpq query is one set question on its glued
  // graph: does a source reach t's node? The source is s's node for reach;
  // for rpq it is every condensation successor of (s, u_s). (s, u_s) has no
  // in-edges, so it is its own component and never (t, u_t)'s: the
  // expansion is exact, and it hands the labels interior pairs they decide
  // far more often than the start pair itself (DESIGN.md §9.3). Each glued
  // graph answers its questions 64 lanes per word — no equation system is
  // ever built.
  StopWatch assemble_watch;
  std::vector<std::vector<Decoder>> frames(num_fragments);
  for (size_t ri = 0; ri < sites.size(); ++ri) {
    if (!SplitFrames(round.value()[ri], site_queries[sites[ri]].size(),
                     &frames[sites[ri]])) {
      return MalformedReply("index sweep reply");
    }
  }
  // A site's frames answer its sub-batch in batch order, so one cursor per
  // site walks them as the queries go by.
  std::vector<size_t> next_frame(num_fragments, 0);
  // Flat node storage, per question t's node then the sources; spans are
  // built only after the fill so growth can't invalidate them.
  struct PendingQuestion {
    size_t wi;
    size_t offset;
    size_t num_sources;
  };
  std::vector<uint32_t> nodes;
  std::vector<std::vector<PendingQuestion>> pending(entries.size());
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const Query& q = queries[wire[wi]];
    const size_t ei = entry_index(wi);
    const SiteId s_site = frag.site_of(q.source);
    const SiteId t_site = frag.site_of(q.target);
    Decoder* s_frame = &frames[s_site][next_frame[s_site]++];
    Decoder* t_frame =
        t_site == s_site ? s_frame : &frames[t_site][next_frame[t_site]++];
    uint32_t s_node = 0;
    uint32_t t_node = 0;
    if (!DecodeEndpointNodes(*entries[ei].rows, s_site, t_site, s_frame,
                             t_frame, &s_node, &t_node)) {
      return MalformedReply("boundary sweep frame");
    }
    if (q.kind == QueryKind::kDist) {
      QueryAnswer& answer = (*answers)[wire[wi]];
      answer.distance = boundary_dist_->Distance(s_node, t_node, q.bound);
      answer.reachable = answer.distance != kInfWeight;
      continue;
    }
    const size_t offset = nodes.size();
    nodes.push_back(t_node);
    if (q.kind == QueryKind::kRpq) {
      entries[ei].glued->AppendSuccessors(s_node, &nodes);
    } else {
      nodes.push_back(s_node);
    }
    pending[ei].push_back({wi, offset, nodes.size() - offset - 1});
  }

  const std::span<const uint32_t> flat(nodes);
  std::vector<WordQuestion> questions;
  std::vector<uint8_t> batched;
  for (size_t ei = 0; ei < entries.size(); ++ei) {
    if (pending[ei].empty()) continue;
    questions.clear();
    for (const PendingQuestion& p : pending[ei]) {
      questions.push_back({flat.subspan(p.offset + 1, p.num_sources),
                           flat.subspan(p.offset, 1)});
    }
    entries[ei].glued->AnswerBatch(questions, &batched);
    for (size_t i = 0; i < pending[ei].size(); ++i) {
      (*answers)[wire[pending[ei][i].wi]].reachable = batched[i] != 0;
    }
  }
  cluster_->AddCoordinatorWorkMs(assemble_watch.ElapsedMs());
  return Status::OK();
}

}  // namespace pereach
