#include "src/mapreduce/mr_rpq.h"

#include "src/bes/bes.h"
#include "src/bes/distance_system.h"
#include "src/core/local_eval.h"
#include "src/fragment/partitioner.h"
#include "src/util/random.h"
#include "src/util/timer.h"

namespace pereach {

MapReduceRpqResult MapReduceRpq(const Fragmentation& fragmentation, NodeId s,
                                NodeId t, const QueryAutomaton& automaton,
                                const NetworkModel& net, ThreadPool* pool) {
  const size_t k = fragmentation.num_fragments();

  // preMRPQ: one ⟨i, (F_i, G_q)⟩ input pair per mapper.
  std::vector<KeyValue> inputs(k);
  for (SiteId i = 0; i < k; ++i) {
    inputs[i].key = i;
    Encoder enc;
    enc.PutVarint(s);
    enc.PutVarint(t);
    automaton.Serialize(&enc);
    fragmentation.fragment(i).Serialize(&enc);
    inputs[i].value = enc.TakeBuffer();
  }

  // mapRPQ: localEvalr as the Map function; all pairs share key 1 so they
  // meet at a single reducer (Fig. 10).
  const MapReduce::MapFn map_fn = [](const KeyValue& input) {
    Decoder dec(input.value);
    const NodeId qs = static_cast<NodeId>(dec.GetVarint());
    const NodeId qt = static_cast<NodeId>(dec.GetVarint());
    const QueryAutomaton a = QueryAutomaton::Deserialize(&dec);
    const Fragment f = Fragment::Deserialize(&dec);
    Encoder enc;
    LocalEvalRegular(f, a, qs, qt).Serialize(&enc);
    std::vector<KeyValue> out(1);
    out[0].key = 1;
    out[0].value = enc.TakeBuffer();
    return out;
  };

  // reduceRPQ: assemble RVset, run evalDGr, emit ⟨0, ans⟩.
  const MapReduce::ReduceFn reduce_fn =
      [s](uint64_t key, const std::vector<std::vector<uint8_t>>& values) {
        PEREACH_CHECK_EQ(key, 1u);
        BooleanEquationSystem bes;
        for (const std::vector<uint8_t>& rvset : values) {
          Decoder dec(rvset);
          RegularPartialAnswer::Deserialize(&dec).AddToBes(&bes);
        }
        const bool ans =
            bes.Evaluate(PackNodeState(s, QueryAutomaton::kStart));
        std::vector<KeyValue> out(1);
        out[0].key = 0;
        out[0].value.push_back(ans ? 1 : 0);
        return out;
      };

  MapReduce mr(pool);
  MapReduce::Result run = mr.Run(inputs, k, /*num_reducers=*/1, map_fn,
                                 reduce_fn);
  PEREACH_CHECK_EQ(run.output.size(), 1u);

  MapReduceRpqResult result;
  result.stats = run.stats;
  result.answer.reachable = run.output[0].value[0] != 0;
  result.answer.metrics.wall_ms = run.stats.wall_ms;
  result.answer.metrics.traffic_bytes = run.stats.TotalTrafficBytes();
  result.answer.metrics.messages = 2 * k + 1;  // k inputs, k rvsets, 1 output
  result.answer.metrics.rounds = 2;            // map round + reduce round
  // Modeled response: ship inputs, run the slowest mapper, ship its rvset to
  // the reducer, reduce — the ECC critical path of [1] plus compute.
  result.answer.metrics.modeled_ms =
      2 * net.latency_ms + net.TransferMs(run.stats.EccBytes()) +
      run.stats.map_wall_ms + run.stats.reduce_wall_ms;
  result.answer.metrics.site_visits.assign(k, 1);
  return result;
}

MapReduceRpqResult MapReduceRpqOnGraph(const Graph& g, NodeId s, NodeId t,
                                       const QueryAutomaton& automaton,
                                       size_t num_mappers,
                                       const NetworkModel& net,
                                       ThreadPool* pool) {
  Rng rng(0);  // chunking is deterministic; rng is unused by ChunkPartitioner
  const std::vector<SiteId> partition =
      ChunkPartitioner().Partition(g, num_mappers, &rng);
  const Fragmentation fragmentation =
      Fragmentation::Build(g, partition, num_mappers);
  return MapReduceRpq(fragmentation, s, t, automaton, net, pool);
}

namespace {

/// Shared scaffolding of the reach/dist adaptations: ship ⟨i, (query, F_i)⟩
/// to the mappers, collect every rvset at one reducer, read one verdict.
MapReduceRpqResult RunAdaptedJob(const Fragmentation& fragmentation,
                                 const Encoder& query_header,
                                 const NetworkModel& net, ThreadPool* pool,
                                 const MapReduce::MapFn& map_fn,
                                 const MapReduce::ReduceFn& reduce_fn) {
  const size_t k = fragmentation.num_fragments();
  std::vector<KeyValue> inputs(k);
  for (SiteId i = 0; i < k; ++i) {
    inputs[i].key = i;
    Encoder enc;
    for (uint8_t b : query_header.buffer()) enc.PutU8(b);
    fragmentation.fragment(i).Serialize(&enc);
    inputs[i].value = enc.TakeBuffer();
  }

  MapReduce mr(pool);
  MapReduce::Result run =
      mr.Run(inputs, k, /*num_reducers=*/1, map_fn, reduce_fn);
  PEREACH_CHECK_EQ(run.output.size(), 1u);

  MapReduceRpqResult result;
  result.stats = run.stats;
  Decoder out(run.output[0].value);
  result.answer.reachable = out.GetU8() != 0;
  const uint64_t dist = out.GetVarint();
  result.answer.distance = dist == 0 ? kInfWeight : dist - 1;
  result.answer.metrics.wall_ms = run.stats.wall_ms;
  result.answer.metrics.traffic_bytes = run.stats.TotalTrafficBytes();
  result.answer.metrics.messages = 2 * k + 1;
  result.answer.metrics.rounds = 2;
  result.answer.metrics.modeled_ms =
      2 * net.latency_ms + net.TransferMs(run.stats.EccBytes()) +
      run.stats.map_wall_ms + run.stats.reduce_wall_ms;
  result.answer.metrics.site_visits.assign(k, 1);
  return result;
}

std::vector<KeyValue> EmitOne(std::vector<uint8_t> value) {
  std::vector<KeyValue> out(1);
  out[0].key = 1;
  out[0].value = std::move(value);
  return out;
}

std::vector<KeyValue> EmitVerdict(bool reachable, uint64_t distance) {
  std::vector<KeyValue> out(1);
  out[0].key = 0;
  Encoder enc;
  enc.PutU8(reachable ? 1 : 0);
  enc.PutVarint(distance == kInfWeight ? 0 : distance + 1);
  out[0].value = enc.TakeBuffer();
  return out;
}

}  // namespace

MapReduceRpqResult MapReduceReach(const Fragmentation& fragmentation, NodeId s,
                                  NodeId t, const NetworkModel& net,
                                  ThreadPool* pool) {
  Encoder header;
  header.PutVarint(s);
  header.PutVarint(t);

  const MapReduce::MapFn map_fn = [](const KeyValue& input) {
    Decoder dec(input.value);
    const NodeId qs = static_cast<NodeId>(dec.GetVarint());
    const NodeId qt = static_cast<NodeId>(dec.GetVarint());
    const Fragment f = Fragment::Deserialize(&dec);
    Encoder enc;
    LocalEvalReach(f, qs, qt).Serialize(&enc);
    return EmitOne(enc.TakeBuffer());
  };
  const MapReduce::ReduceFn reduce_fn =
      [s](uint64_t, const std::vector<std::vector<uint8_t>>& values) {
        BooleanEquationSystem bes;
        for (const std::vector<uint8_t>& rvset : values) {
          Decoder dec(rvset);
          ReachPartialAnswer::Deserialize(&dec).AddToBes(&bes);
        }
        return EmitVerdict(bes.Evaluate(s), kInfWeight);
      };
  MapReduceRpqResult result =
      RunAdaptedJob(fragmentation, header, net, pool, map_fn, reduce_fn);
  if (s == t) result.answer.reachable = true;
  return result;
}

MapReduceRpqResult MapReduceBoundedReach(const Fragmentation& fragmentation,
                                         NodeId s, NodeId t, uint32_t bound,
                                         const NetworkModel& net,
                                         ThreadPool* pool) {
  Encoder header;
  header.PutVarint(s);
  header.PutVarint(t);
  header.PutVarint(bound);

  const MapReduce::MapFn map_fn = [](const KeyValue& input) {
    Decoder dec(input.value);
    const NodeId qs = static_cast<NodeId>(dec.GetVarint());
    const NodeId qt = static_cast<NodeId>(dec.GetVarint());
    const uint32_t qbound = static_cast<uint32_t>(dec.GetVarint());
    const Fragment f = Fragment::Deserialize(&dec);
    Encoder enc;
    LocalEvalDist(f, qs, qt, qbound).Serialize(&enc);
    return EmitOne(enc.TakeBuffer());
  };
  const MapReduce::ReduceFn reduce_fn =
      [s, bound](uint64_t, const std::vector<std::vector<uint8_t>>& values) {
        DistanceEquationSystem system;
        for (const std::vector<uint8_t>& rvset : values) {
          Decoder dec(rvset);
          DistPartialAnswer::Deserialize(&dec).AddToSystem(&system);
        }
        const uint64_t dist = system.Evaluate(s);
        return EmitVerdict(dist <= bound, dist <= bound ? dist : kInfWeight);
      };
  MapReduceRpqResult result =
      RunAdaptedJob(fragmentation, header, net, pool, map_fn, reduce_fn);
  if (s == t) {
    result.answer.reachable = true;
    result.answer.distance = 0;
  }
  return result;
}

}  // namespace pereach
