#ifndef PEREACH_CORE_DIS_DIST_H_
#define PEREACH_CORE_DIS_DIST_H_

#include "src/core/answer.h"
#include "src/core/query.h"
#include "src/net/cluster.h"

namespace pereach {

/// Algorithm disDist (paper §4): evaluates q_br(s, t, l) via partial
/// evaluation. Sites run localEvald producing min-plus equations with
/// locally measured distances; the coordinator runs Dijkstra over the
/// weighted dependency graph (evalDGd). Same guarantees as disReach
/// (Theorem 2). answer.distance is the exact distance when <= l, and
/// kInfWeight otherwise.
///
/// Thin single-query wrapper over PartialEvalEngine (src/engine).
QueryAnswer DisDist(Cluster* cluster, const BoundedReachQuery& query);

}  // namespace pereach

#endif  // PEREACH_CORE_DIS_DIST_H_
