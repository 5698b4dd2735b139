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
// The indexed path validates reply CONTENT too (the rows decoders, the
// sweep frames in RunIndexed), so a CRC-valid reply naming a non-boundary
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

/// Answers dist query `wi` from its sweep frames: the s-side exit
/// distances spliced onto the t-side entry distances through one
/// bidirectional Dijkstra over the standing graph (edges above the bound
/// filtered), then the minimum with the local short-circuit. A reply is not
/// trusted: false unless every exit is inside s's installed oset table,
/// every entry is an in-node of this epoch and every distance is within the
/// bound (a site never ships a longer one), which also keeps the search's
/// sums far from wrapping. An exit whose oset entry is a dead end seeds
/// nothing.
bool DecodeDistance(BoundaryDistIndex* index, const Fragmentation& frag,
                    const Query& q, size_t wi,
                    std::vector<std::vector<Decoder>>* frames,
                    uint64_t* distance) {
  const SiteId s_site = frag.site_of(q.source);
  const SiteId t_site = frag.site_of(q.target);
  Decoder& s_frame = (*frames)[s_site][wi];
  const uint8_t s_flags = s_frame.GetU8();
  if (!(s_flags & kFrameHasS)) return false;
  uint64_t local_dist = kInfWeight;
  if (s_flags & kFrameHasLocalDist) {
    local_dist = s_frame.GetVarint();
    if (local_dist > q.bound) return false;
  }
  std::vector<BoundaryDistIndex::Seed> s_out;
  const std::vector<uint32_t>& exits = index->oset_nodes(s_site);
  uint32_t prev = 0;
  for (size_t n = s_frame.GetCount(2); n > 0; --n) {
    prev += static_cast<uint32_t>(s_frame.GetVarint());
    const uint64_t hops = s_frame.GetVarint();
    if (prev >= exits.size() || hops > q.bound) return false;
    if (exits[prev] != BoundaryDistIndex::kNoNode) {
      s_out.push_back({exits[prev], hops});
    }
  }

  Decoder& t_frame = (*frames)[t_site][wi];
  const uint8_t t_flags = t_site == s_site ? s_flags : t_frame.GetU8();
  if (!(t_flags & kFrameHasT)) return false;
  std::vector<BoundaryDistIndex::Seed> t_in;
  for (size_t n = t_frame.GetCount(2); n > 0; --n) {
    const uint32_t entry = index->InNode(t_frame.GetVarint());
    const uint64_t hops = t_frame.GetVarint();
    if (entry == BoundaryDistIndex::kNoNode || hops > q.bound) return false;
    t_in.push_back({entry, hops});
  }
  if (!s_frame.ok() || !t_frame.ok()) return false;
  *distance = std::min(local_dist, index->ShortestPath(s_out, t_in, q.bound));
  return true;
}

/// One standing index an indexed batch routes queries to: the reach index,
/// the dist index, or one automaton's rpq entry.
struct IndexEntry {
  QueryKind kind = QueryKind::kReach;
  BoundaryReachIndex* glued = nullptr;  // reach and rpq
  BoundaryDistIndex* dist = nullptr;    // dist
  const CanonicalAutomaton* automaton = nullptr;  // rpq
  std::vector<SiteId> dirty = {};
};

}  // namespace

BatchBroadcast EncodeBatchBroadcast(std::span<const Query> queries,
                                    const std::vector<size_t>& wire) {
  // Regular queries dedupe their automata by canonical signature: identical
  // regexes in one batch ship one automaton plus a per-query table
  // reference instead of k serialized copies.
  BatchBroadcast out;
  out.automaton_ref.assign(wire.size(), 0);
  std::unordered_map<std::string, uint32_t> ref_of;
  Encoder enc;
  enc.PutVarint(wire.size());
  for (size_t wi = 0; wi < wire.size(); ++wi) {
    const Query& q = queries[wire[wi]];
    q.SerializeHeader(&enc);
    if (q.kind != QueryKind::kRpq) continue;
    CanonicalAutomaton canon = Canonicalize(*q.automaton);
    const auto [it, inserted] = ref_of.emplace(
        canon.signature.key, static_cast<uint32_t>(out.automata.size()));
    if (inserted) out.automata.push_back(std::move(canon));
    out.automaton_ref[wi] = it->second;
    enc.PutVarint(it->second);
  }
  if (!out.automata.empty()) {
    enc.PutVarint(out.automata.size());
    for (const CanonicalAutomaton& a : out.automata) {
      a.automaton.Serialize(&enc);
    }
  }
  out.bytes = enc.TakeBuffer();
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
  spec.broadcast = EncodeBatchBroadcast(queries, wire).bytes;
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

Status PartialEvalEngine::RunIndexed(std::span<const Query> queries,
                                     const std::vector<size_t>& wire,
                                     std::vector<QueryAnswer>* answers) {
  const Fragmentation& frag = cluster_->fragmentation();
  const size_t num_fragments = frag.num_fragments();
  BatchBroadcast sweep = EncodeBatchBroadcast(queries, wire);

  // Route every query to its standing index, built on first use: entry 0 is
  // the reach index, entry 1 the dist index, entry 2 + r the rpq entry of
  // the sweep's automaton r (one per canonical signature).
  const auto has = [&](QueryKind kind) {
    return std::any_of(wire.begin(), wire.end(),
                       [&](size_t qi) { return queries[qi].kind == kind; });
  };
  std::vector<IndexEntry> entries(2 + sweep.automata.size());
  if (has(QueryKind::kReach)) {
    if (!boundary_) {
      boundary_ = std::make_unique<BoundaryReachIndex>(num_fragments);
    }
    entries[0] = {.kind = QueryKind::kReach, .glued = boundary_.get()};
  }
  if (has(QueryKind::kDist)) {
    if (!boundary_dist_) {
      boundary_dist_ = std::make_unique<BoundaryDistIndex>(num_fragments);
    }
    entries[1] = {.kind = QueryKind::kDist, .dist = boundary_dist_.get()};
  }
  if (!sweep.automata.empty()) {
    if (!boundary_rpq_) {
      boundary_rpq_ = std::make_unique<BoundaryRpqIndex>(
          num_fragments, options_.rpq_cache_entries);
    }
    boundary_rpq_->BeginBatch();
    for (size_t r = 0; r < sweep.automata.size(); ++r) {
      entries[2 + r] = {
          .kind = QueryKind::kRpq,
          .glued = &boundary_rpq_->GetEntry(sweep.automata[r].signature),
          .automaton = &sweep.automata[r]};
    }
  }
  const auto entry_index = [&](size_t wi) -> size_t {
    const QueryKind kind = queries[wire[wi]].kind;
    return kind == QueryKind::kRpq ? 2 + sweep.automaton_ref[wi]
                                   : static_cast<size_t>(kind);
  };

  // Refresh round: fetch the rows of every dirty (index, fragment) pair of
  // the batch in ONE round — every fragment on an index's first use,
  // exactly the update-touched ones afterwards (InvalidateFragment marks
  // them). The broadcast lists each dirty index once — its kind, an rpq
  // entry's canonical automaton, its dirty sites — and a site replies with
  // one rows frame per index that lists it, in broadcast order.
  std::vector<std::vector<size_t>> site_entries(num_fragments);
  size_t num_dirty = 0;
  for (IndexEntry& e : entries) {
    if (e.glued != nullptr) e.dirty = e.glued->DirtySites();
    if (e.dist != nullptr) e.dirty = e.dist->DirtySites();
    num_dirty += e.dirty.empty() ? 0 : 1;
  }
  Encoder refresh;
  refresh.PutVarint(num_dirty);
  for (size_t ei = 0; ei < entries.size(); ++ei) {
    const IndexEntry& e = entries[ei];
    if (e.dirty.empty()) continue;
    refresh.PutU8(static_cast<uint8_t>(e.kind));
    if (e.automaton != nullptr) e.automaton->automaton.Serialize(&refresh);
    refresh.PutVarint(e.dirty.size());
    for (SiteId site : e.dirty) {
      refresh.PutVarint(site);
      site_entries[site].push_back(ei);
    }
  }
  std::vector<SiteId> refresh_sites;
  for (SiteId site = 0; site < num_fragments; ++site) {
    if (!site_entries[site].empty()) refresh_sites.push_back(site);
  }
  StopWatch build_watch;
  if (!refresh_sites.empty()) {
    RoundSpec spec;
    spec.kind = RoundKind::kIndexRows;
    spec.broadcast = refresh.TakeBuffer();
    Result<std::vector<std::vector<uint8_t>>> round =
        cluster_->TryRound(refresh_sites, spec, &contexts_);
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
        const IndexEntry& e = entries[site_entries[site][j]];
        Decoder& frame = frames[ri][j];
        if (e.dist != nullptr) {
          WeightedBoundaryRows rows = WeightedBoundaryRows::Deserialize(&frame);
          if (!frame.Done()) return MalformedReply("weighted boundary rows");
          e.dist->SetFragmentRows(site, std::move(rows));
        } else {
          BoundaryRows rows = BoundaryRows::Deserialize(&frame);
          if (!frame.Done()) return MalformedReply("boundary rows");
          e.glued->SetFragmentRows(site, std::move(rows));
        }
      }
    }
  }
  // Rebuild every index whose rows changed: this round's, and any a
  // rejected batch installed before its reply failed to decode.
  for (IndexEntry& e : entries) {
    if (e.glued != nullptr) e.glued->Ensure();
    if (e.dist != nullptr) e.dist->Ensure();
  }
  if (!refresh_sites.empty()) {
    cluster_->AddCoordinatorWorkMs(build_watch.ElapsedMs());
  }

  // Sweep round over the ENDPOINT fragments only — the standing indexes
  // replace the all-sites equation broadcast. Each involved site answers
  // every query of the batch with one small frame: a component id per
  // endpoint it stores (reach, rpq) or its bounded s-side / t-side distance
  // lists (dist), and a flag byte for a query whose endpoints it does not
  // store.
  const std::vector<SiteId> sites = EndpointSites(frag, queries, wire);
  RoundSpec spec;
  spec.kind = RoundKind::kIndexSweep;
  spec.broadcast = std::move(sweep.bytes);
  Result<std::vector<std::vector<uint8_t>>> round =
      cluster_->TryRound(sites, spec, &contexts_);
  if (!round.ok()) return round.status();

  // Assemble. A dist query is one bidirectional Dijkstra. A reach or rpq
  // query is one set question on its glued graph: does a source reach
  // t's node? The source is s's node for reach; for rpq it is every
  // condensation successor of (s, u_s). (s, u_s) has no in-edges, so it is
  // its own component and never (t, u_t)'s: the expansion is exact, and it
  // hands the labels interior pairs they decide far more often than the
  // start pair itself (DESIGN.md §9.3). Each glued graph answers its
  // questions 64 lanes per word — no equation system is ever built.
  StopWatch assemble_watch;
  std::vector<std::vector<Decoder>> frames(num_fragments);
  for (size_t ri = 0; ri < sites.size(); ++ri) {
    if (!SplitFrames(round.value()[ri], wire.size(), &frames[sites[ri]])) {
      return MalformedReply("index sweep reply");
    }
  }
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
    if (q.kind == QueryKind::kDist) {
      QueryAnswer& answer = (*answers)[wire[wi]];
      if (!DecodeDistance(entries[ei].dist, frag, q, wi, &frames,
                          &answer.distance)) {
        return MalformedReply("dist sweep frame");
      }
      answer.reachable =
          answer.distance != kInfWeight && answer.distance <= q.bound;
      continue;
    }
    const BoundaryReachIndex& index = *entries[ei].glued;
    uint32_t s_node = 0;
    uint32_t t_node = 0;
    if (!DecodeEndpointNodes(index, frag, q, wi, &frames, &s_node, &t_node)) {
      return MalformedReply("boundary sweep frame");
    }
    const size_t offset = nodes.size();
    nodes.push_back(t_node);
    if (q.kind == QueryKind::kRpq) {
      index.AppendSuccessors(s_node, &nodes);
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
