#ifndef PEREACH_CORE_ANSWER_H_
#define PEREACH_CORE_ANSWER_H_

#include "src/bes/distance_system.h"
#include "src/net/metrics.h"

namespace pereach {

/// Result of one distributed query run: the Boolean answer, the distance
/// for bounded queries, and the run's cost metrics. For a bounded query,
/// `distance` is the distance when within the bound and kInfWeight
/// otherwise, so `reachable == (distance != kInfWeight)`; the other classes
/// do not read it.
struct QueryAnswer {
  bool reachable = false;
  uint64_t distance = kInfWeight;
  RunMetrics metrics;
};

}  // namespace pereach

#endif  // PEREACH_CORE_ANSWER_H_
