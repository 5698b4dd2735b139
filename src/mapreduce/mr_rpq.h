#ifndef PEREACH_MAPREDUCE_MR_RPQ_H_
#define PEREACH_MAPREDUCE_MR_RPQ_H_

#include "src/core/answer.h"
#include "src/fragment/fragmentation.h"
#include "src/mapreduce/mapreduce.h"
#include "src/net/metrics.h"
#include "src/regex/query_automaton.h"

namespace pereach {

/// Algorithm MRdRPQ (paper §6, Fig. 10): regular reachability as one
/// MapReduce job. preMRPQ partitions the graph into K fragments and sends
/// ⟨i, (F_i, G_q)⟩ to mapper i; mapRPQ runs localEvalr as the Map function;
/// reduceRPQ collects every rvset at a single reducer and runs evalDGr.
///
/// The returned metrics report the job: traffic = fragment shipping plus
/// shuffle (the Map-phase distribution cost the paper observes dominating),
/// modeled time derived from the ECC of [1] under `net`, and one visit per
/// mapper plus one for the reducer.
struct MapReduceRpqResult {
  QueryAnswer answer;
  MapReduceStats stats;
};

/// Runs MRdRPQ over a pre-built fragmentation (parG's output; the paper
/// uses Hadoop's default chunking, built here with ChunkPartitioner).
MapReduceRpqResult MapReduceRpq(const Fragmentation& fragmentation, NodeId s,
                                NodeId t, const QueryAutomaton& automaton,
                                const NetworkModel& net, ThreadPool* pool);

/// Convenience wrapper: chunk-partitions `g` into `num_mappers` fragments
/// (procedure preMRPQ) and runs the job.
MapReduceRpqResult MapReduceRpqOnGraph(const Graph& g, NodeId s, NodeId t,
                                       const QueryAutomaton& automaton,
                                       size_t num_mappers,
                                       const NetworkModel& net,
                                       ThreadPool* pool);

/// The §6 adaptation to plain reachability ("special cases of regular
/// reachability queries"): localEval as the Map function, evalDG as Reduce.
MapReduceRpqResult MapReduceReach(const Fragmentation& fragmentation, NodeId s,
                                  NodeId t, const NetworkModel& net,
                                  ThreadPool* pool);

/// The §6 adaptation to bounded reachability: localEvald as Map, evalDGd as
/// Reduce. answer.distance carries the exact distance when <= bound, and
/// kInfWeight otherwise.
MapReduceRpqResult MapReduceBoundedReach(const Fragmentation& fragmentation,
                                         NodeId s, NodeId t, uint32_t bound,
                                         const NetworkModel& net,
                                         ThreadPool* pool);

}  // namespace pereach

#endif  // PEREACH_MAPREDUCE_MR_RPQ_H_
