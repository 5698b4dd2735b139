#ifndef PEREACH_SERVER_QUERY_SERVER_H_
#define PEREACH_SERVER_QUERY_SERVER_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/incremental.h"
#include "src/engine/partial_eval_engine.h"
#include "src/net/cluster.h"
#include "src/server/admission.h"
#include "src/server/answer_cache.h"
#include "src/server/batch_queue.h"
#include "src/server/epoch_gate.h"
#include "src/server/server_metrics.h"
#include "src/util/sync.h"

namespace pereach {

struct ServerOptions {
  /// Coalescing policy, applied to each query class's window independently.
  BatchPolicy policy;
  /// Equation form and coordinator answer paths the per-class engines
  /// evaluate with: reach_path / dist_path route the reach and dist
  /// dispatchers through their standing boundary indexes (which ride the
  /// same epoch-gated invalidation as every per-fragment cache), kBes keeps
  /// the paper's per-query assembling.
  PartialEvalOptions eval;
  /// Network cost model of the underlying simulated cluster.
  NetworkModel net;
  /// Site-simulation threads (0 = hardware concurrency).
  size_t cluster_threads = 0;
  /// Epoch-keyed answer cache (default off — enable for workloads with
  /// repeated queries; DESIGN.md §11.1 for the key-soundness argument).
  AnswerCacheOptions cache;
  /// Backpressure budgets and tenant quotas (default unbounded — set every
  /// budget in production; DESIGN.md §11.2, docs/OPERATIONS.md for tuning).
  AdmissionOptions admission;
  /// Serving transport behind the cluster's rounds (default in-process
  /// kSim; kSocket serves over real workers, DESIGN.md §13).
  /// A transport failure rejects the affected batch (kTransportError) and
  /// the server keeps serving.
  TransportOptions transport;
};

/// Aggregate serving counters. Snapshot via QueryServer::stats(). Counts
/// EVALUATED work only (cache hits and rejections never reach a
/// dispatcher); the metrics registry (QueryServer::Metrics) is the full
/// observability surface.
struct ServerStats {
  size_t queries = 0;         // answered (set promises)
  size_t batches = 0;         // EvaluateBatch calls across all classes
  size_t max_batch = 0;       // largest batch dispatched
  size_t updates = 0;         // committed update epochs
  double sum_modeled_ms = 0;  // total modeled time across batch windows
  double sum_wall_ms = 0;     // total wall time across batch windows
  // Modeled time per class dispatcher. Batches of one class serialize on
  // its dispatcher while classes overlap, so the modeled time to serve the
  // whole workload — the simulator's throughput denominator — is the max
  // entry, not the sum.
  std::array<double, 3> modeled_ms_by_class{};

  double AvgBatch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(queries) /
                              static_cast<double>(batches);
  }
  double AvgPerQueryModeledMs() const {
    return queries == 0 ? 0.0 : sum_modeled_ms / static_cast<double>(queries);
  }
  double ModeledMakespanMs() const {
    double makespan = 0;
    for (double ms : modeled_ms_by_class) makespan = std::max(makespan, ms);
    return makespan;
  }
};

/// Concurrent serving frontend over one fragmentation — the piece that
/// turns the one-query-at-a-time simulator into a serving system:
///
///  - Submit() is callable from any number of client threads and returns a
///    future. Queries are routed to a per-class BatchQueue (reach / dist /
///    rpq batches multiplex different wire shapes, so classes coalesce
///    separately and in parallel).
///  - One dispatcher thread per class pops coalesced batches — adaptive
///    time/size window, see BatchPolicy — and drives them through a
///    DEDICATED PartialEvalEngine in one EvaluateBatch round, amortizing
///    communication across every in-flight query of the class (per-thread
///    cluster metrics windows keep the three dispatchers' books separate).
///  - AddEdge/AddEdges serialize through an epoch-based writer path: the
///    writer drains in-flight batches (EpochGate), applies the update via
///    the IncrementalReachIndex (whose listener invalidates exactly the
///    touched FragmentContext entries in every class engine), commits the
///    epoch, and only then readmits batches. Every answer reports the epoch
///    it was computed at; a batch never observes a half-applied update.
///
/// Production hardening (DESIGN.md §11, docs/OPERATIONS.md):
///
///  - Answer cache. With ServerOptions::cache.enabled, Submit looks the
///    query up by canonical key (CanonicalQueryKey: rpq queries share a key
///    across regex phrasings via the canonical automaton signature) at the
///    committed epoch; a hit resolves the future immediately with the
///    bit-identical stored answer — no queue space, no evaluation round.
///    Commits invalidate the whole cache (epoch-keyed entries can never be
///    served at a later epoch).
///  - Admission control. ServerOptions::admission bounds every queue in
///    entries and in age, and tenants in in-flight queries; over-budget
///    submissions resolve rejected (ServedAnswer::reject_reason) instead
///    of queueing unboundedly. Tenancy is the id passed to Submit.
///  - Metrics. Every decision increments the ServerMetrics registry;
///    Metrics() snapshots counters/gauges/histograms, MetricsJson() is the
///    exportable form (bench_server --metrics-json=, examples/server_stats).
///
/// The index must outlive the server. The server installs itself as the
/// index's update listener; updates must flow through the server (calling
/// index.AddEdge directly would race in-flight batches).
class QueryServer {
 public:
  explicit QueryServer(IncrementalReachIndex* index,
                       ServerOptions options = {});

  /// Drains pending queries, stops the dispatchers, detaches from the index.
  ~QueryServer();

  /// Stops serving: pending queries drain and are answered, dispatchers
  /// exit, the index listener detaches. Submissions racing (or following)
  /// Stop resolve with ServedAnswer::rejected instead of crashing — the
  /// future always becomes ready. Idempotent; the destructor calls it.
  void Stop();

  /// Enqueues one query; the future resolves once its batch is answered —
  /// or immediately on a cache hit, or immediately with rejected == true
  /// (see ServedAnswer::reject_reason) when the server is stopping, the
  /// query is unevaluable, or an admission budget turned it away. `tenant`
  /// attributes the query for fair-share quotas; single-tenant callers
  /// keep the default.
  std::future<ServedAnswer> Submit(Query query, TenantId tenant = 0);

  /// Applies one edge insertion as one snapshot epoch; blocks while
  /// in-flight batches drain. Returns the committed epoch.
  uint64_t AddEdge(NodeId u, NodeId v);

  /// Applies a whole update batch as ONE snapshot epoch (one structural
  /// rebuild); the cheaper writer path for bulk loads. A batch naming a node
  /// at or past the node count is refused whole: nothing is applied, the
  /// current epoch is returned (as for an empty batch) and
  /// server_updates_rejected_total counts it.
  uint64_t AddEdges(std::span<const std::pair<NodeId, NodeId>> edges);

  /// Blocks until every query submitted so far has been answered. Queries
  /// submitted concurrently with Drain may or may not be covered.
  void Drain();

  /// Epoch of the latest committed update.
  uint64_t epoch() const { return gate_.epoch(); }

  ServerStats stats() const;

  /// Full observability snapshot: every counter, gauge and histogram of
  /// the metrics registry, gauges sampled at call time (queue depths,
  /// cache footprint, epoch lag, tenants in flight).
  MetricsSnapshot Metrics() const;

  /// The snapshot serialized as one JSON object — the
  /// `bench_server --metrics-json=` payload (schema in docs/OPERATIONS.md).
  std::string MetricsJson() const { return Metrics().ToJson(); }

  /// The answer cache's own books (observability for tests).
  AnswerCacheCounters cache_counters() const { return cache_.counters(); }

  /// Adaptive window currently estimated for a class (observability).
  double window_us(QueryKind kind) const {
    return queues_[static_cast<size_t>(kind)]->window_us();
  }

  Cluster* cluster() { return &cluster_; }

 private:
  static constexpr size_t kNumClasses = 3;  // QueryKind values

  void DispatcherLoop(size_t class_idx);

  /// Resolves `promise` as rejected with `reason`, stamping the committed
  /// epoch, and bumps the rejection counters.
  void Reject(std::promise<ServedAnswer>* promise, RejectReason reason);

  IncrementalReachIndex* index_;
  ServerOptions options_;
  Cluster cluster_;
  EpochGate gate_;
  // Updates the index had applied before this server attached; the gate's
  // epochs count from here.
  uint64_t index_epoch_base_ = 0;
  // Node count of the served graph; AddEdges never adds nodes, so a query
  // or update endpoint at or past it is malformed for the server's whole
  // lifetime.
  size_t num_nodes_ = 0;

  std::array<std::unique_ptr<BatchQueue>, kNumClasses> queues_;
  std::array<std::unique_ptr<PartialEvalEngine>, kNumClasses> engines_;
  std::array<std::thread, kNumClasses> dispatchers_;

  AnswerCache cache_;
  mutable ServerMetrics metrics_;  // mutable: Metrics() samples gauges
  // Snapshot each class last answered a batch at, for the epoch-lag gauge
  // (a class with no pending work is considered current).
  std::array<std::atomic<uint64_t>, kNumClasses> last_answered_epoch_{};

  std::atomic<bool> stopping_{false};
  // Serializes concurrent Stop() calls. Ranked below everything: it is held
  // across dispatcher joins and the writer-held listener detach.
  Mutex stop_mu_{LockRank::kServerStop};

  // Drain and quota bookkeeping: queries submitted but not yet answered,
  // total and per tenant. One lock: Submit and batch completion touch both.
  mutable Mutex drain_mu_{LockRank::kServerDrain};
  CondVar drained_;
  size_t in_flight_ PEREACH_GUARDED_BY(drain_mu_) = 0;
  std::unordered_map<TenantId, size_t> tenant_in_flight_
      PEREACH_GUARDED_BY(drain_mu_);

  mutable Mutex stats_mu_{LockRank::kServerStats};
  ServerStats stats_ PEREACH_GUARDED_BY(stats_mu_);
};

}  // namespace pereach

#endif  // PEREACH_SERVER_QUERY_SERVER_H_
