#ifndef PEREACH_ENGINE_QUERY_ENGINE_H_
#define PEREACH_ENGINE_QUERY_ENGINE_H_

#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "src/core/answer.h"
#include "src/core/query.h"
#include "src/net/cluster.h"
#include "src/regex/query_automaton.h"
#include "src/util/serialization.h"

namespace pereach {

/// The three query classes of the paper, unified for batch dispatch.
enum class QueryKind : uint8_t { kReach = 0, kDist = 1, kRpq = 2 };

/// One query of a batch: a tagged union over q_r(s, t), q_br(s, t, l) and
/// q_rr(s, t, R). The automaton is pre-built so a workload can reuse one
/// G_q(R) across many endpoint pairs.
struct Query {
  QueryKind kind = QueryKind::kReach;
  NodeId source = kInvalidNode;
  NodeId target = kInvalidNode;
  uint32_t bound = 0;                        // kDist only
  std::optional<QueryAutomaton> automaton;   // kRpq only

  static Query Reach(NodeId s, NodeId t) {
    Query q;
    q.kind = QueryKind::kReach;
    q.source = s;
    q.target = t;
    return q;
  }

  static Query Dist(NodeId s, NodeId t, uint32_t bound) {
    Query q;
    q.kind = QueryKind::kDist;
    q.source = s;
    q.target = t;
    q.bound = bound;
    return q;
  }

  static Query Rpq(NodeId s, NodeId t, QueryAutomaton automaton) {
    Query q;
    q.kind = QueryKind::kRpq;
    q.source = s;
    q.target = t;
    q.automaton = std::move(automaton);
    return q;
  }

  /// Builds the rpq query for `regex`. When the regex exceeds the
  /// automaton's state cap (QueryAutomaton::FromRegex fails) the query
  /// carries NO automaton: engines CHECK-fail on it, but QueryServer::Submit
  /// rejects it gracefully — one oversized client regex must not kill a
  /// serving process.
  static Query Rpq(NodeId s, NodeId t, const Regex& regex) {
    Query q;
    q.kind = QueryKind::kRpq;
    q.source = s;
    q.target = t;
    Result<QueryAutomaton> automaton = QueryAutomaton::FromRegex(regex);
    if (automaton.ok()) q.automaton = std::move(automaton).value();
    return q;
  }

  /// True iff the query can be evaluated: every kind except an rpq whose
  /// regex failed to build an automaton. Engines CHECK this; QueryServer
  /// rejects instead.
  bool well_formed() const {
    return kind != QueryKind::kRpq || automaton.has_value();
  }

  /// Broadcast wire format of the automaton-independent fields — the
  /// single definition every engine's batch payload uses, so byte
  /// accounting cannot drift between the engines a bench compares. Batch
  /// encoders that dedupe automata write this header plus a table
  /// reference; Serialize appends the automaton inline.
  void SerializeHeader(Encoder* enc) const {
    enc->PutU8(static_cast<uint8_t>(kind));
    enc->PutVarint(source);
    enc->PutVarint(target);
    if (kind == QueryKind::kDist) enc->PutVarint(bound);
  }

  void Serialize(Encoder* enc) const {
    SerializeHeader(enc);
    if (kind == QueryKind::kRpq) {
      PEREACH_CHECK(automaton.has_value() &&
                    "serializing an rpq query with no automaton");
      automaton->Serialize(enc);
    }
  }
};

/// Result of one batch run: per-query answers plus the cost of the whole
/// batch. Per-query metrics are not separable once replies are multiplexed
/// into one wire payload, so each answer's own metrics field is left empty.
/// `status` is non-OK when the batch could not be evaluated — a serving
/// transport failure (dead worker, expired deadline, corrupt frame) fails
/// the WHOLE batch, since its queries were multiplexed into the failed
/// round; `answers` must not be read then. The simulated backend fails
/// only on a round spec that does not decode.
struct BatchAnswer {
  Status status;
  std::vector<QueryAnswer> answers;
  RunMetrics metrics;
};

/// Polymorphic query evaluation over a Cluster. Implementations differ in
/// how they ship work to the sites (partial evaluation, ship-all, message
/// passing, ...) but share the contract:
///  - Evaluate answers one query, metrics attached;
///  - EvaluateBatch answers k queries in one metrics window, so engines that
///    can multiplex (PartialEvalEngine) pay O(1) communication rounds per
///    batch while round-per-query engines pay k — the comparison the
///    bench_batch harness draws.
/// Engines are not thread-safe; use one engine per concurrent caller. Any
/// number of engines may share one Cluster from distinct threads — metrics
/// windows are per-thread, and EvaluateBatch reads its own window, so
/// overlapping batches (the QueryServer's per-class dispatchers) keep
/// separate books.
class QueryEngine {
 public:
  explicit QueryEngine(Cluster* cluster) : cluster_(cluster) {}
  virtual ~QueryEngine() = default;

  virtual std::string_view name() const = 0;

  /// Evaluates one query (a batch of one).
  QueryAnswer Evaluate(const Query& query);

  /// Evaluates a batch of queries in one metrics window; answers are
  /// returned in query order.
  BatchAnswer EvaluateBatch(std::span<const Query> queries);

  Cluster* cluster() const { return cluster_; }

 protected:
  /// Runs the batch inside an open BeginQuery/EndQuery window, appending one
  /// answer per query (metrics left default) to `answers`. A non-OK return
  /// means the serving transport failed mid-batch; `answers` contents are
  /// unspecified then (the window is still closed and charged by
  /// EvaluateBatch).
  virtual Status RunBatch(std::span<const Query> queries,
                          std::vector<QueryAnswer>* answers) = 0;

  Cluster* cluster_;
};

}  // namespace pereach

#endif  // PEREACH_ENGINE_QUERY_ENGINE_H_
