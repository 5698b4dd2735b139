#ifndef PEREACH_SERVER_SERVER_METRICS_H_
#define PEREACH_SERVER_SERVER_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/util/sync.h"

namespace pereach {

/// The serving layer's exportable metrics registry: a fixed, enumerable set
/// of counters, gauges and histograms. Fixed and enum-keyed on purpose —
/// update sites are branch-free array indexing, the full name/type/unit
/// catalog is available to tooling (examples/server_stats --list prints it;
/// scripts/check_docs.py fails CI when a name is missing from
/// docs/OPERATIONS.md), and a snapshot is a plain struct that serializes to
/// JSON without reflection.
///
/// Conventions: counters are monotonic and suffixed _total; gauges are
/// instantaneous values sampled at snapshot time; histograms record one
/// observation per batch window on geometric buckets (powers of two), with
/// percentiles interpolated within the bucket. Metric names are the
/// stable operations surface — renaming one is a breaking change for
/// operators and must update docs/OPERATIONS.md (CI enforces presence).

enum class CounterId : size_t {
  kQueriesSubmitted = 0,  // every Submit call, admitted or not
  kQueriesAnswered,       // futures resolved with an answer (evaluated + cached)
  kQueriesRejected,       // futures resolved rejected, any reason
  kRejectedStopping,
  kRejectedMalformed,
  kRejectedQueueFull,
  kRejectedQueueStale,
  kRejectedTenantQuota,
  kRejectedTransport,  // serving-transport failures (dead worker, deadline,
                       // corrupt frame) that rejected a dispatched batch
  kBatches,            // EvaluateBatch windows across all classes
  kUpdates,            // committed update epochs
  kUpdatesRejected,    // AddEdges batches refused for an out-of-range node
  kCacheHits,          // answer-cache hits (served without evaluation)
  kCacheMisses,        // enabled-cache lookups that missed
  kCacheInsertions,    // entries written after evaluation
  kCacheEvictions,     // LRU drops to hold the entry/byte budgets
  kCacheInvalidated,   // entries dropped by epoch advances
  kTransportRetries,   // in-round re-dispatches after a site exchange failed
  kTransportRespawns,  // worker re-establishments after the first Hello
  kTransportDegraded,  // site-rounds evaluated locally (degrade_local)
  kCount,
};

enum class GaugeId : size_t {
  kQueueDepthReach = 0,  // pending entries in the reach class queue
  kQueueDepthDist,
  kQueueDepthRpq,
  kCacheEntries,
  kCacheBytes,
  kEpoch,            // committed update epoch
  kEpochLag,         // committed epoch minus the stalest dispatcher's last
                     // answered epoch (0 when every class is current)
  kTenantsInFlight,  // tenants with at least one admitted unanswered query
  kBreakersOpen,     // transport connections with an open/half-open breaker
  kCount,
};

enum class HistogramId : size_t {
  kBatchSize = 0,     // queries coalesced per dispatched batch
  kModeledMsReach,    // modeled ms per reach batch window
  kModeledMsDist,
  kModeledMsRpq,
  kWallMsReach,       // wall ms per reach batch window
  kWallMsDist,
  kWallMsRpq,
  kCount,
};

/// Catalog row: everything an operator needs to interpret one metric.
struct MetricInfo {
  const char* name;  // stable exported name, e.g. "server_cache_hits_total"
  const char* type;  // "counter" | "gauge" | "histogram"
  const char* unit;  // "queries", "ms", "bytes", ...
  const char* help;  // one-line meaning
};

std::span<const MetricInfo> CounterInfos();
std::span<const MetricInfo> GaugeInfos();
std::span<const MetricInfo> HistogramInfos();

/// Histogram state at snapshot time. Percentiles are estimates (linear
/// interpolation inside the landing bucket); count/sum/min/max are exact.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
};

/// One consistent-enough view of every metric (counters are read
/// individually-atomically; a snapshot taken mid-batch may see the batch
/// counter but not yet its histogram observation — fine for monitoring).
struct MetricsSnapshot {
  std::array<uint64_t, static_cast<size_t>(CounterId::kCount)> counters{};
  std::array<double, static_cast<size_t>(GaugeId::kCount)> gauges{};
  std::array<HistogramSnapshot, static_cast<size_t>(HistogramId::kCount)>
      histograms{};

  uint64_t counter(CounterId id) const {
    return counters[static_cast<size_t>(id)];
  }
  double gauge(GaugeId id) const { return gauges[static_cast<size_t>(id)]; }
  const HistogramSnapshot& histogram(HistogramId id) const {
    return histograms[static_cast<size_t>(id)];
  }

  /// Serializes the whole snapshot as one JSON object:
  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, p50, p90, p99}, ...}} — the bench_server --metrics-json=
  /// payload and the server_stats example's source of truth.
  std::string ToJson() const;
};

class ServerMetrics {
 public:
  ServerMetrics();

  void AddCounter(CounterId id, uint64_t delta = 1) {
    counters_[static_cast<size_t>(id)].fetch_add(delta,
                                                 std::memory_order_relaxed);
  }
  /// Imports an externally-maintained monotonic counter (the AnswerCache
  /// keeps its own books; the server copies them in before snapshotting).
  void SetCounter(CounterId id, uint64_t value) {
    counters_[static_cast<size_t>(id)].store(value, std::memory_order_relaxed);
  }
  void SetGauge(GaugeId id, double value) {
    MutexLock lock(&mu_);
    gauges_[static_cast<size_t>(id)] = value;
  }
  void Observe(HistogramId id, double value);

  MetricsSnapshot Snapshot() const;

  /// Histogram bucket upper bounds: powers of two spanning [2^-10, 2^20],
  /// shared by every histogram (values are ms or queries; both fit), plus
  /// an implicit overflow bucket.
  static constexpr size_t kNumBuckets = 31;

 private:
  struct Histogram {
    std::array<uint64_t, kNumBuckets + 1> buckets{};  // +1 = overflow
    uint64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
  };

  static double BucketUpper(size_t i);
  static HistogramSnapshot Summarize(const Histogram& h);

  std::array<std::atomic<uint64_t>, static_cast<size_t>(CounterId::kCount)>
      counters_;
  mutable Mutex mu_{LockRank::kServerMetrics};
  std::array<double, static_cast<size_t>(GaugeId::kCount)> gauges_
      PEREACH_GUARDED_BY(mu_){};
  std::array<Histogram, static_cast<size_t>(HistogramId::kCount)> histograms_
      PEREACH_GUARDED_BY(mu_);
};

}  // namespace pereach

#endif  // PEREACH_SERVER_SERVER_METRICS_H_
