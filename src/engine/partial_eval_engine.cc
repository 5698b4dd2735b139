#include "src/engine/partial_eval_engine.h"

#include <algorithm>
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
// The indexed paths validate reply CONTENT too (the rows decoders, the
// sweep frames in RunBoundary*), so a CRC-valid reply naming a non-boundary
// node, an index past its table or an out-of-bound distance is rejected the
// same way.

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

/// The fragments storing an endpoint of a query in `wire`, ascending and
/// distinct — the sites an indexed sweep round visits.
std::vector<SiteId> EndpointSites(const Fragmentation& frag,
                                  std::span<const Query> queries,
                                  const std::vector<size_t>& wire) {
  std::vector<SiteId> sites;
  sites.reserve(2 * wire.size());
  for (size_t qi : wire) {
    sites.push_back(frag.site_of(queries[qi].source));
    sites.push_back(frag.site_of(queries[qi].target));
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

/// Splits each site's sweep reply into one frame decoder per query (frames
/// view the reply buffers), indexed by site id. False when a reply is not
/// exactly `num_queries` frames.
bool SplitSweepReplies(const std::vector<SiteId>& sites,
                       const std::vector<std::vector<uint8_t>>& replies,
                       size_t num_fragments, size_t num_queries,
                       std::vector<std::vector<Decoder>>* frames) {
  frames->assign(num_fragments, {});
  for (size_t ri = 0; ri < sites.size(); ++ri) {
    Decoder dec(replies[ri], Decoder::OnError::kStatus);
    std::vector<Decoder>& site_frames = (*frames)[sites[ri]];
    site_frames.reserve(num_queries);
    for (size_t wi = 0; wi < num_queries; ++wi) {
      site_frames.push_back(dec.GetFrame());
    }
    if (!dec.Done()) return false;
  }
  return true;
}

/// Decodes query `wi`'s endpoint nodes from its reach or rpq sweep frames:
/// the s-side frame lists s's component first, t's frame (the same frame
/// when one site stores both) lists t's component last. A reply is not
/// trusted: false unless both flags are set and each component id names a
/// node of `index`.
bool DecodeEndpointNodes(const BoundaryReachIndex& index,
                         const Fragmentation& frag, const Query& q, size_t wi,
                         std::vector<std::vector<Decoder>>* frames,
                         uint32_t* s_node, uint32_t* t_node) {
  const SiteId s_site = frag.site_of(q.source);
  const SiteId t_site = frag.site_of(q.target);
  Decoder& s_frame = (*frames)[s_site][wi];
  const uint8_t s_flags = s_frame.GetU8();
  *s_node = index.Node(s_site, s_frame.GetVarint());
  Decoder& t_frame = (*frames)[t_site][wi];
  const uint8_t t_flags = t_site == s_site ? s_flags : t_frame.GetU8();
  *t_node = index.Node(t_site, t_frame.GetVarint());
  return (s_flags & kFrameHasS) && (t_flags & kFrameHasT) && s_frame.ok() &&
         t_frame.ok() && *s_node != BoundaryReachIndex::kNoNode &&
         *t_node != BoundaryReachIndex::kNoNode;
}

}  // namespace

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
  // under a boundary index, which take their own endpoint-fragment paths.
  std::vector<size_t> wire;
  std::vector<size_t> indexed;
  std::vector<size_t> indexed_dist;
  std::vector<size_t> indexed_rpq;
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
    if (q.kind == QueryKind::kReach &&
        options_.reach_path == ReachAnswerPath::kBoundaryIndex) {
      indexed.push_back(qi);
      continue;
    }
    if (q.kind == QueryKind::kDist &&
        options_.dist_path == DistAnswerPath::kBoundaryIndex) {
      indexed_dist.push_back(qi);
      continue;
    }
    if (q.kind == QueryKind::kRpq &&
        options_.rpq_path == RpqAnswerPath::kBoundaryIndex) {
      indexed_rpq.push_back(qi);
      continue;
    }
    any_reach |= q.kind == QueryKind::kReach;
    wire.push_back(qi);
  }
  if (!indexed.empty()) {
    Status s = RunBoundaryReach(queries, indexed, answers);
    if (!s.ok()) return s;
  }
  if (!indexed_dist.empty()) {
    Status s = RunBoundaryDist(queries, indexed_dist, answers);
    if (!s.ok()) return s;
  }
  if (!indexed_rpq.empty()) {
    Status s = RunBoundaryRpq(queries, indexed_rpq, answers);
    if (!s.ok()) return s;
  }
  if (wire.empty()) return Status::OK();

  // Batched broadcast: k queries in one payload — both the byte accounting
  // and the literal bytes every site decodes. Regular queries dedupe their
  // automata by canonical signature: identical regexes in one batch ship one
  // automaton plus a per-query table reference instead of k serialized
  // copies.
  Encoder broadcast;
  {
    std::unordered_map<std::string, uint32_t> automaton_ref;
    Encoder automata;
    broadcast.PutVarint(wire.size());
    for (size_t qi : wire) {
      const Query& q = queries[qi];
      q.SerializeHeader(&broadcast);
      if (q.kind == QueryKind::kRpq) {
        const CanonicalAutomaton canon = Canonicalize(*q.automaton);
        const auto [it, inserted] = automaton_ref.emplace(
            canon.signature.key,
            static_cast<uint32_t>(automaton_ref.size()));
        if (inserted) canon.automaton.Serialize(&automata);
        broadcast.PutVarint(it->second);
      }
    }
    broadcast.PutVarint(automaton_ref.size());
    broadcast.PutRaw(automata.buffer());
  }

  // One round: every site runs localEval for all k queries in a single
  // visit and multiplexes the partial answers into one reply — shared oset
  // table first (reach frames reference it), then one frame per query.
  RoundSpec spec;
  spec.kind = RoundKind::kBatchEval;
  spec.aux = static_cast<uint8_t>(options_.form);
  spec.accounted_broadcast_bytes = broadcast.size();
  spec.broadcast = broadcast.TakeBuffer();
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
      answer.distance = dist.Evaluate(q.source);
      answer.reachable =
          answer.distance != kInfWeight && answer.distance <= q.bound;
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

Status PartialEvalEngine::RunBoundaryReach(std::span<const Query> queries,
                                           const std::vector<size_t>& wire,
                                           std::vector<QueryAnswer>* answers) {
  const Fragmentation& frag = cluster_->fragmentation();
  if (boundary_ == nullptr) {
    boundary_ = std::make_unique<BoundaryReachIndex>(frag.num_fragments());
  }

  // Refresh round: fetch the condensation of every dirty fragment (all of
  // them on first use; exactly the update-touched ones afterwards — the
  // InvalidateFragment path marks them) and rebuild the glued graph +
  // labels at the coordinator. Amortized across every later reach batch
  // until the next update. A fragment's rows are only installed once its
  // reply decoded cleanly, so a failed refresh leaves the site dirty and
  // the next batch re-fetches.
  const std::vector<SiteId> dirty = boundary_->DirtySites();
  if (!dirty.empty()) {
    RoundSpec spec;
    spec.kind = RoundKind::kReachRows;
    spec.accounted_broadcast_bytes = 1;  // the "please send rows" byte
    Result<std::vector<std::vector<uint8_t>>> round =
        cluster_->TryRound(dirty, spec, &contexts_);
    if (!round.ok()) return round.status();
    const std::vector<std::vector<uint8_t>>& rows_replies = round.value();
    StopWatch build_watch;
    for (size_t i = 0; i < dirty.size(); ++i) {
      Decoder dec(rows_replies[i], Decoder::OnError::kStatus);
      BoundaryRows rows = BoundaryRows::Deserialize(&dec);
      if (!dec.Done()) return MalformedReply("boundary rows payload");
      boundary_->SetFragmentRows(dirty[i], std::move(rows));
    }
    boundary_->Ensure();
    cluster_->AddCoordinatorWorkMs(build_watch.ElapsedMs());
  }

  // Sweep round over the ENDPOINT fragments only — the boundary index
  // replaces the all-sites equation broadcast. Each involved site answers
  // every query of the batch with one tiny frame (the component of each
  // endpoint it stores); sites holding neither endpoint emit a flag byte.
  const std::vector<SiteId> sites = EndpointSites(frag, queries, wire);

  Encoder broadcast;
  broadcast.PutVarint(wire.size());
  for (size_t qi : wire) queries[qi].Serialize(&broadcast);

  RoundSpec spec;
  spec.kind = RoundKind::kReachSweep;
  spec.accounted_broadcast_bytes = broadcast.size();
  spec.broadcast = broadcast.TakeBuffer();
  Result<std::vector<std::vector<uint8_t>>> round =
      cluster_->TryRound(sites, spec, &contexts_);
  if (!round.ok()) return round.status();

  // Assemble: per query, one (component of s, component of t) question on
  // the glued graph — no equation system is ever built — answered 64 lanes
  // per bit-parallel word.
  StopWatch assemble_watch;
  std::vector<std::vector<Decoder>> frames;
  if (!SplitSweepReplies(sites, round.value(), frag.num_fragments(),
                         wire.size(), &frames)) {
    return MalformedReply("boundary sweep reply");
  }
  std::vector<uint32_t> nodes(2 * wire.size());
  std::vector<WordQuestion> questions(wire.size());
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    if (!DecodeEndpointNodes(*boundary_, frag, queries[wire[wi]], wi, &frames,
                             &nodes[2 * wi], &nodes[2 * wi + 1])) {
      return MalformedReply("boundary sweep frame");
    }
    questions[wi] = {{&nodes[2 * wi], 1}, {&nodes[2 * wi + 1], 1}};
  }
  std::vector<uint8_t> batched;
  boundary_->AnswerBatch(questions, &batched);
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    (*answers)[wire[wi]].reachable = batched[wi] != 0;
  }
  cluster_->AddCoordinatorWorkMs(assemble_watch.ElapsedMs());
  return Status::OK();
}

Status PartialEvalEngine::RunBoundaryDist(std::span<const Query> queries,
                                          const std::vector<size_t>& wire,
                                          std::vector<QueryAnswer>* answers) {
  const Fragmentation& frag = cluster_->fragmentation();
  if (boundary_dist_ == nullptr) {
    boundary_dist_ = std::make_unique<BoundaryDistIndex>(frag.num_fragments());
  }

  // Refresh round: fetch the weighted boundary rows of every dirty fragment
  // and rebuild the standing CSR pair at the coordinator. Amortized across
  // every later dist batch until the next update.
  const std::vector<SiteId> dirty = boundary_dist_->DirtySites();
  if (!dirty.empty()) {
    RoundSpec spec;
    spec.kind = RoundKind::kDistRows;
    spec.accounted_broadcast_bytes = 1;  // the "please send rows" byte
    Result<std::vector<std::vector<uint8_t>>> round =
        cluster_->TryRound(dirty, spec, &contexts_);
    if (!round.ok()) return round.status();
    const std::vector<std::vector<uint8_t>>& rows_replies = round.value();
    StopWatch build_watch;
    for (size_t i = 0; i < dirty.size(); ++i) {
      Decoder dec(rows_replies[i], Decoder::OnError::kStatus);
      WeightedBoundaryRows rows = WeightedBoundaryRows::Deserialize(&dec);
      if (!dec.Done()) return MalformedReply("weighted boundary rows payload");
      boundary_dist_->SetFragmentRows(dirty[i], std::move(rows));
    }
    boundary_dist_->Ensure();
    cluster_->AddCoordinatorWorkMs(build_watch.ElapsedMs());
  }

  // Sweep round over the ENDPOINT fragments only — the standing weighted
  // graph replaces the all-sites min-plus equation broadcast. Each involved
  // site answers every query of the batch with one tiny frame (its bounded
  // s-side / t-side distance sweeps); sites holding neither endpoint of a
  // query emit one flag byte.
  const std::vector<SiteId> sites = EndpointSites(frag, queries, wire);

  Encoder broadcast;
  broadcast.PutVarint(wire.size());
  for (size_t qi : wire) queries[qi].Serialize(&broadcast);

  RoundSpec spec;
  spec.kind = RoundKind::kDistSweep;
  spec.accounted_broadcast_bytes = broadcast.size();
  spec.broadcast = broadcast.TakeBuffer();
  Result<std::vector<std::vector<uint8_t>>> round =
      cluster_->TryRound(sites, spec, &contexts_);
  if (!round.ok()) return round.status();

  // Assemble: per query, splice the s-side exit distances onto the t-side
  // entry distances through one bidirectional Dijkstra over the standing
  // graph (edges above the bound filtered), then take the minimum with the
  // local short-circuit — no min-plus equation system is ever built.
  StopWatch assemble_watch;
  std::vector<std::vector<Decoder>> frames;
  if (!SplitSweepReplies(sites, round.value(), frag.num_fragments(),
                         wire.size(), &frames)) {
    return MalformedReply("dist sweep reply");
  }

  std::vector<BoundaryDistIndex::Seed> s_out;
  std::vector<BoundaryDistIndex::Seed> t_in;
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const Query& q = queries[wire[wi]];
    QueryAnswer& answer = (*answers)[wire[wi]];
    const SiteId s_site = frag.site_of(q.source);
    const SiteId t_site = frag.site_of(q.target);

    // A reply is not trusted: every seed must be a boundary node of this
    // epoch and every distance within the bound (a site never ships a
    // longer one), which also keeps the search's sums far from wrapping.
    Decoder& s_frame = frames[s_site][wi];
    const uint8_t s_flags = s_frame.GetU8();
    if (!(s_flags & kFrameHasS)) return MalformedReply("dist sweep frame");
    uint64_t local_dist = kInfWeight;
    if (s_flags & kFrameHasLocalDist) {
      local_dist = s_frame.GetVarint();
      if (local_dist > q.bound) return MalformedReply("dist sweep frame");
    }
    s_out.clear();
    const std::vector<NodeId>& oset = boundary_dist_->oset_globals(s_site);
    uint32_t prev = 0;
    for (size_t n = s_frame.GetCount(2); n > 0; --n) {
      prev += static_cast<uint32_t>(s_frame.GetVarint());
      const uint64_t hops = s_frame.GetVarint();
      if (prev >= oset.size() || hops > q.bound) {
        return MalformedReply("dist sweep frame");
      }
      s_out.push_back({oset[prev], hops});
    }

    Decoder& t_frame = frames[t_site][wi];
    uint8_t t_flags = s_flags;
    if (t_site != s_site) t_flags = t_frame.GetU8();
    if (!(t_flags & kFrameHasT)) return MalformedReply("dist sweep frame");
    t_in.clear();
    for (size_t n = t_frame.GetCount(2); n > 0; --n) {
      const uint64_t global = t_frame.GetVarint();
      const uint64_t hops = t_frame.GetVarint();
      if (global >= kInvalidNode ||
          !boundary_dist_->IsBoundaryNode(static_cast<NodeId>(global)) ||
          hops > q.bound) {
        return MalformedReply("dist sweep frame");
      }
      t_in.push_back({static_cast<NodeId>(global), hops});
    }
    if (!s_frame.ok() || !t_frame.ok()) {
      return MalformedReply("dist sweep frame");
    }

    answer.distance = std::min(
        local_dist, boundary_dist_->ShortestPath(s_out, t_in, q.bound));
    answer.reachable =
        answer.distance != kInfWeight && answer.distance <= q.bound;
  }
  cluster_->AddCoordinatorWorkMs(assemble_watch.ElapsedMs());
  return Status::OK();
}

Status PartialEvalEngine::RunBoundaryRpq(std::span<const Query> queries,
                                         const std::vector<size_t>& wire,
                                         std::vector<QueryAnswer>* answers) {
  const Fragmentation& frag = cluster_->fragmentation();
  if (boundary_rpq_ == nullptr) {
    boundary_rpq_ = std::make_unique<BoundaryRpqIndex>(
        frag.num_fragments(), options_.rpq_cache_entries);
  }
  boundary_rpq_->BeginBatch();

  // Canonicalize and dedupe the batch's automata: every distinct signature
  // maps to one LRU entry and crosses the wire at most once per round.
  struct SigGroup {
    CanonicalAutomaton canon;
    BoundaryReachIndex* entry = nullptr;
    std::vector<SiteId> dirty;
  };
  std::vector<SigGroup> sigs;
  std::unordered_map<std::string, uint32_t> sig_index;
  std::vector<uint32_t> query_sig(wire.size());
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    CanonicalAutomaton canon = Canonicalize(*queries[wire[wi]].automaton);
    const auto [it, inserted] = sig_index.emplace(
        canon.signature.key, static_cast<uint32_t>(sigs.size()));
    if (inserted) sigs.push_back({std::move(canon), nullptr, {}});
    query_sig[wi] = it->second;
  }
  for (SigGroup& sig : sigs) {
    sig.entry = &boundary_rpq_->GetEntry(sig.canon.signature);
    sig.dirty = sig.entry->DirtySites();
  }

  // Refresh round: fetch the product condensation of every dirty
  // (fragment, automaton) combination in ONE round — all of them on an
  // entry's first use; exactly the update-touched fragments afterwards —
  // and rebuild each touched entry's glued graph + labels. Amortized across
  // every later rpq batch over the same automaton until the next update or
  // LRU eviction. The broadcast carries each dirty automaton once plus its
  // site list.
  std::vector<std::vector<uint32_t>> site_sigs(frag.num_fragments());
  std::vector<SiteId> refresh_sites;
  {
    Encoder refresh_broadcast;
    size_t num_dirty_sigs = 0;
    Encoder dirty_payload;
    for (uint32_t si = 0; si < sigs.size(); ++si) {
      if (sigs[si].dirty.empty()) continue;
      ++num_dirty_sigs;
      sigs[si].canon.automaton.Serialize(&dirty_payload);
      dirty_payload.PutVarint(sigs[si].dirty.size());
      for (SiteId site : sigs[si].dirty) {
        dirty_payload.PutVarint(site);
        site_sigs[site].push_back(si);
      }
    }
    refresh_broadcast.PutVarint(num_dirty_sigs);
    refresh_broadcast.PutRaw(dirty_payload.buffer());
    for (SiteId site = 0; site < frag.num_fragments(); ++site) {
      if (!site_sigs[site].empty()) refresh_sites.push_back(site);
    }
    if (!refresh_sites.empty()) {
      RoundSpec spec;
      spec.kind = RoundKind::kRpqRows;
      spec.accounted_broadcast_bytes = refresh_broadcast.size();
      spec.broadcast = refresh_broadcast.TakeBuffer();
      Result<std::vector<std::vector<uint8_t>>> round =
          cluster_->TryRound(refresh_sites, spec, &contexts_);
      if (!round.ok()) return round.status();
      const std::vector<std::vector<uint8_t>>& rows_replies = round.value();
      StopWatch build_watch;
      for (size_t ri = 0; ri < refresh_sites.size(); ++ri) {
        Decoder dec(rows_replies[ri], Decoder::OnError::kStatus);
        for (uint32_t si : site_sigs[refresh_sites[ri]]) {
          Decoder frame = dec.GetFrame();
          BoundaryRows rows = BoundaryRows::Deserialize(&frame);
          if (!frame.Done()) return MalformedReply("product rows frame");
          sigs[si].entry->SetFragmentRows(refresh_sites[ri], std::move(rows));
        }
        if (!dec.Done()) return MalformedReply("product rows payload");
      }
      for (SigGroup& sig : sigs) sig.entry->Ensure();
      cluster_->AddCoordinatorWorkMs(build_watch.ElapsedMs());
    }
  }

  // Sweep round over the ENDPOINT fragments only — the glued product
  // graphs replace the all-sites product-equation broadcast. Each involved
  // site answers every query of the batch with reach's tiny frame,
  // comp(s, u_s) and/or comp(t, u_t); sites holding neither endpoint of a
  // query emit one flag byte. The broadcast ships the batch's distinct
  // canonical automata once each; queries reference them by index.
  const std::vector<SiteId> sites = EndpointSites(frag, queries, wire);

  Encoder broadcast;
  broadcast.PutVarint(sigs.size());
  for (const SigGroup& sig : sigs) sig.canon.automaton.Serialize(&broadcast);
  broadcast.PutVarint(wire.size());
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    broadcast.PutVarint(queries[wire[wi]].source);
    broadcast.PutVarint(queries[wire[wi]].target);
    broadcast.PutVarint(query_sig[wi]);
  }

  RoundSpec spec;
  spec.kind = RoundKind::kRpqSweep;
  spec.accounted_broadcast_bytes = broadcast.size();
  spec.broadcast = broadcast.TakeBuffer();
  Result<std::vector<std::vector<uint8_t>>> round =
      cluster_->TryRound(sites, spec, &contexts_);
  if (!round.ok()) return round.status();

  // Assemble: per query, does a condensation successor of (s, u_s) reach
  // (t, u_t) in its entry's glued graph? (s, u_s) has no in-edges, so it is
  // its own component and never (t, u_t)'s: the expansion is exact, and it
  // hands the labels interior pairs they decide far more often than the
  // start pair itself (DESIGN.md §9). Each entry then answers its questions
  // in 64-lane words — no equation system is ever built.
  StopWatch assemble_watch;
  std::vector<std::vector<Decoder>> frames;
  if (!SplitSweepReplies(sites, round.value(), frag.num_fragments(),
                         wire.size(), &frames)) {
    return MalformedReply("product sweep reply");
  }
  // Flat node storage, per query the t node then the s-side successors;
  // spans are built only after the fill so growth can't invalidate them.
  std::vector<uint32_t> nodes;
  struct PendingQuestion {
    size_t wi;
    size_t offset;
    size_t num_sources;
  };
  std::vector<std::vector<PendingQuestion>> pending_by_sig(sigs.size());
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const BoundaryReachIndex& entry = *sigs[query_sig[wi]].entry;
    uint32_t s_node = 0;
    uint32_t t_node = 0;
    if (!DecodeEndpointNodes(entry, frag, queries[wire[wi]], wi, &frames,
                             &s_node, &t_node)) {
      return MalformedReply("product sweep frame");
    }
    const size_t offset = nodes.size();
    nodes.push_back(t_node);
    entry.AppendSuccessors(s_node, &nodes);
    pending_by_sig[query_sig[wi]].push_back(
        {wi, offset, nodes.size() - offset - 1});
  }

  const std::span<const uint32_t> flat(nodes);
  std::vector<WordQuestion> questions;
  std::vector<uint8_t> batched;
  for (size_t si = 0; si < sigs.size(); ++si) {
    const std::vector<PendingQuestion>& pending = pending_by_sig[si];
    if (pending.empty()) continue;
    questions.clear();
    for (const PendingQuestion& p : pending) {
      questions.push_back({flat.subspan(p.offset + 1, p.num_sources),
                           flat.subspan(p.offset, 1)});
    }
    sigs[si].entry->AnswerBatch(questions, &batched);
    for (size_t i = 0; i < pending.size(); ++i) {
      (*answers)[wire[pending[i].wi]].reachable = batched[i] != 0;
    }
  }
  cluster_->AddCoordinatorWorkMs(assemble_watch.ElapsedMs());
  return Status::OK();
}

}  // namespace pereach
