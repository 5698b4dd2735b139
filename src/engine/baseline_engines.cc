#include "src/engine/baseline_engines.h"

#include "src/baselines/centralized.h"
#include "src/baselines/dis_mp.h"
#include "src/baselines/dis_naive.h"
#include "src/baselines/dis_rpq_suciu.h"
#include "src/util/timer.h"

namespace pereach {

Status NaiveShipAllEngine::RunBatch(std::span<const Query> queries,
                                  std::vector<QueryAnswer>* answers) {
  answers->resize(queries.size());
  if (queries.empty()) return Status::OK();

  Encoder broadcast;
  broadcast.PutVarint(queries.size());
  for (const Query& q : queries) q.Serialize(&broadcast);

  const Graph g = ShipAndReassemble(cluster_, broadcast.size());
  StopWatch watch;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const Query& q = queries[qi];
    QueryAnswer& answer = (*answers)[qi];
    switch (q.kind) {
      case QueryKind::kReach:
        answer.reachable = CentralizedReach(g, q.source, q.target);
        break;
      case QueryKind::kDist: {
        const uint32_t d = CentralizedDistance(g, q.source, q.target);
        answer.distance = d == kInfDistance ? kInfWeight : d;
        answer.reachable = d != kInfDistance && d <= q.bound;
        break;
      }
      case QueryKind::kRpq:
        PEREACH_CHECK(q.well_formed());
        answer.reachable =
            CentralizedRegularReach(g, q.source, q.target, *q.automaton);
        break;
    }
  }
  cluster_->AddCoordinatorWorkMs(watch.ElapsedMs());
  return Status::OK();
}

Status MessagePassingEngine::RunBatch(std::span<const Query> queries,
                                    std::vector<QueryAnswer>* answers) {
  answers->reserve(queries.size());
  for (const Query& q : queries) {
    PEREACH_CHECK(q.kind == QueryKind::kReach &&
                  "MessagePassingEngine supports reachability queries only");
    answers->push_back(RunDisReachMp(cluster_, q.source, q.target));
  }
  // Baselines round with Cluster::Round on the pool, which never fails.
  return Status::OK();
}

Status SuciuRpqEngine::RunBatch(std::span<const Query> queries,
                              std::vector<QueryAnswer>* answers) {
  answers->reserve(queries.size());
  for (const Query& q : queries) {
    PEREACH_CHECK(q.kind == QueryKind::kRpq && q.well_formed() &&
                  "SuciuRpqEngine supports regular queries only");
    answers->push_back(
        RunDisRpqSuciu(cluster_, q.source, q.target, *q.automaton));
  }
  return Status::OK();
}

}  // namespace pereach
