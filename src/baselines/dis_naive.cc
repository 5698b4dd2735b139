#include "src/baselines/dis_naive.h"

#include "src/baselines/centralized.h"
#include "src/fragment/fragment.h"
#include "src/util/timer.h"

namespace pereach {

/// Ships every fragment to the coordinator and reassembles G, charging the
/// cluster for the traffic; returns the rebuilt graph.
Graph ShipAndReassemble(Cluster* cluster, size_t query_bytes) {
  const std::vector<std::vector<uint8_t>> payloads =
      cluster->RoundAll(query_bytes, [](const Fragment& f) {
        Encoder enc;
        f.Serialize(&enc);
        return enc.TakeBuffer();
      });
  StopWatch watch;
  Graph g = ReassembleGraph(payloads, cluster->fragmentation().num_nodes());
  cluster->AddCoordinatorWorkMs(watch.ElapsedMs());
  return g;
}

Graph ReassembleGraph(const std::vector<std::vector<uint8_t>>& payloads,
                      size_t num_nodes) {
  GraphBuilder b;
  b.AddNodes(num_nodes);
  for (const std::vector<uint8_t>& payload : payloads) {
    Decoder dec(payload);
    const Fragment f = Fragment::Deserialize(&dec);
    const Graph& local = f.local_graph();
    for (NodeId v = 0; v < f.num_local(); ++v) {
      b.SetLabel(f.ToGlobal(v), local.label(v));
    }
    // Every edge of G appears in exactly one fragment (its source's), either
    // as a local edge or as a cross edge to a virtual node.
    for (NodeId u = 0; u < f.num_local(); ++u) {
      const NodeId gu = f.ToGlobal(u);
      for (NodeId v : local.OutNeighbors(u)) {
        b.AddEdge(gu, f.ToGlobal(v));
      }
    }
  }
  return std::move(b).Build();
}

QueryAnswer DisReachNaive(Cluster* cluster, const ReachQuery& query) {
  QueryAnswer answer;
  cluster->BeginQuery();
  Encoder query_enc;
  query_enc.PutVarint(query.source);
  query_enc.PutVarint(query.target);
  const Graph g = ShipAndReassemble(cluster, query_enc.size());
  StopWatch watch;
  answer.reachable = CentralizedReach(g, query.source, query.target);
  cluster->AddCoordinatorWorkMs(watch.ElapsedMs());
  answer.metrics = cluster->EndQuery();
  return answer;
}

QueryAnswer DisDistNaive(Cluster* cluster, const BoundedReachQuery& query) {
  QueryAnswer answer;
  cluster->BeginQuery();
  Encoder query_enc;
  query_enc.PutVarint(query.source);
  query_enc.PutVarint(query.target);
  query_enc.PutVarint(query.bound);
  const Graph g = ShipAndReassemble(cluster, query_enc.size());
  StopWatch watch;
  const uint32_t dist = CentralizedDistance(g, query.source, query.target);
  answer.reachable = dist != kInfDistance && dist <= query.bound;
  answer.distance = answer.reachable ? dist : kInfWeight;
  cluster->AddCoordinatorWorkMs(watch.ElapsedMs());
  answer.metrics = cluster->EndQuery();
  return answer;
}

QueryAnswer DisRpqNaive(Cluster* cluster, NodeId s, NodeId t,
                        const QueryAutomaton& automaton) {
  QueryAnswer answer;
  cluster->BeginQuery();
  Encoder query_enc;
  query_enc.PutVarint(s);
  query_enc.PutVarint(t);
  automaton.Serialize(&query_enc);
  const Graph g = ShipAndReassemble(cluster, query_enc.size());
  StopWatch watch;
  answer.reachable = CentralizedRegularReach(g, s, t, automaton);
  cluster->AddCoordinatorWorkMs(watch.ElapsedMs());
  answer.metrics = cluster->EndQuery();
  return answer;
}

}  // namespace pereach
