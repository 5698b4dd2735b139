#ifndef PEREACH_GRAPH_ALGORITHMS_H_
#define PEREACH_GRAPH_ALGORITHMS_H_

#include <functional>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/bitset.h"
#include "src/util/common.h"

namespace pereach {

/// Forward BFS: flags[v] == true iff s reaches v (reflexively: flags[s]).
std::vector<bool> ReachableFrom(const Graph& g, NodeId s);

/// True iff s reaches t (s == t counts, via the empty path).
bool Reaches(const Graph& g, NodeId s, NodeId t);

/// Unweighted shortest-path distances from s; kInfDistance if unreachable.
/// Nodes farther than `max_dist` are left at kInfDistance (search is pruned).
/// This and BfsDistancesTo are the single-ended kernels: one source (or one
/// target) against every node in O(|V| + |E|), however many nodes the caller
/// reads off the result. ForEachBoundedDistance is for many-to-many sweeps.
std::vector<uint32_t> BfsDistances(const Graph& g, NodeId s,
                                   uint32_t max_dist = kInfDistance);

/// Unweighted shortest-path distances TO t (a BFS along in-edges):
/// d[v] = dist(v, t), kInfDistance if v does not reach t or is farther than
/// `max_dist`.
std::vector<uint32_t> BfsDistancesTo(const Graph& g, NodeId t,
                                     uint32_t max_dist = kInfDistance);

/// Unweighted distance from s to t (kInfDistance if unreachable).
uint32_t BfsDistance(const Graph& g, NodeId s, NodeId t);

/// Strongly connected components. Component ids are assigned in Tarjan
/// emission order, which is *reverse topological*: every edge of the
/// condensation goes from a higher component id to a lower one. This property
/// is what the bitset propagation below relies on.
struct SccResult {
  std::vector<uint32_t> component_of;  // node -> component id
  size_t num_components = 0;
};

SccResult StronglyConnectedComponents(const Graph& g);

/// Condensation DAG of g: one node per SCC, deduplicated edges.
struct Condensation {
  SccResult scc;
  // Adjacency of the condensation in CSR form (component -> components).
  std::vector<size_t> offsets;
  std::vector<uint32_t> targets;
};

Condensation Condense(const Graph& g);

/// For every node v, the set of target indices i such that v reaches
/// targets[i] (reflexive: a target reaches itself). One pass over the SCC
/// condensation in reverse topological order with word-parallel bitset
/// unions — O((|V| + |E|) * |targets|/64). This is the engine behind the
/// paper's localEval (targets = virtual nodes ∪ {t}).
std::vector<Bitset> ReachableTargets(const Graph& g,
                                     const std::vector<NodeId>& targets);

/// Memory-bounded variant of ReachableTargets restricted to `sources`:
/// calls emit(source_index, target_index) for every pair with
/// sources[source_index] reaching targets[target_index] (reflexively).
/// Targets are processed in blocks of `block_bits`, bounding peak memory at
/// O(num_components * block_bits / 8) regardless of |targets|. Single pass
/// over the SCC condensation per block; emit runs on the calling thread.
void ForEachReachableTarget(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Variant reusing a precomputed condensation of the same graph — the
/// per-fragment Tarjan pass is query-independent, so engines that serve many
/// queries over one fragment condense once and sweep per query.
void ForEachReachableTarget(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Grouped variant of ForEachReachableTarget: sources in the same strongly
/// connected component have identical reachable sets, so emission happens
/// once per *source group* — emit(group_index, target_index). Returns the
/// group index of every source; group indices are dense, assigned in order
/// of first appearance over `sources`. This is the equation-merging
/// optimization of localEval: on graphs with a giant SCC it shrinks the
/// partial answer from |I| dense rows to one row plus |I| aliases.
std::vector<uint32_t> ForEachReachableTargetGrouped(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Grouped variant over a precomputed condensation (see above).
std::vector<uint32_t> ForEachReachableTargetGrouped(
    const Condensation& cond, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, size_t block_bits,
    const std::function<void(uint32_t, uint32_t)>& emit);

/// Bounded multi-source-to-multi-target distances: calls
/// emit(source_index, target_index, dist) for every pair with
/// dist(sources[i], targets[j]) <= bound (including dist 0 when a source is
/// a target). Level-synchronous backward propagation of target bitsets along
/// reversed edges, blocked like ForEachReachableTarget:
/// O(bound * |E| * block_bits/64) per block, frontier-driven. For many
/// sources AND many targets under a query bound (localEvald). One source or
/// one target — a sweep side, or one in-node's unbounded dist row — is one
/// BfsDistances / BfsDistancesTo call.
void ForEachBoundedDistance(
    const Graph& g, const std::vector<NodeId>& sources,
    const std::vector<NodeId>& targets, uint32_t bound, size_t block_bits,
    const std::function<void(uint32_t, uint32_t, uint32_t)>& emit);

/// Full transitive closure as one |V|-bitset per node (reflexive).
/// Quadratic memory: intended for test oracles on small graphs.
std::vector<Bitset> TransitiveClosure(const Graph& g);

/// All-pairs unweighted distances (Floyd-Warshall, O(|V|^3)).
/// Test oracle for small graphs only.
std::vector<std::vector<uint32_t>> AllPairsDistances(const Graph& g);

/// Nodes in `order[i]` listed so that every edge (u, v) has u before v,
/// when g is a DAG; CHECK-fails on cyclic input. Used by tests.
std::vector<NodeId> TopologicalOrder(const Graph& g);

}  // namespace pereach

#endif  // PEREACH_GRAPH_ALGORITHMS_H_
