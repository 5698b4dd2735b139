#include "src/server/server_metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/util/logging.h"

namespace pereach {

namespace {

// The metric catalog. scripts/check_docs.py parses the quoted names out of
// these tables and fails CI when one is missing from docs/OPERATIONS.md —
// keep one entry per line, name first.
constexpr MetricInfo kCounterInfos[] = {
    {"server_queries_submitted_total", "counter", "queries",
     "Submit calls, admitted or not"},
    {"server_queries_answered_total", "counter", "queries",
     "futures resolved with an answer (evaluated + cache hits)"},
    {"server_queries_rejected_total", "counter", "queries",
     "futures resolved rejected, all reasons"},
    {"server_rejected_stopping_total", "counter", "queries",
     "rejections because the server was stopping"},
    {"server_rejected_malformed_total", "counter", "queries",
     "rejections of unevaluable queries (oversized rpq regex)"},
    {"server_rejected_queue_full_total", "counter", "queries",
     "rejections at the per-class queue entry budget"},
    {"server_rejected_queue_stale_total", "counter", "queries",
     "rejections because the class queue's oldest entry overran the age "
     "budget"},
    {"server_rejected_tenant_quota_total", "counter", "queries",
     "rejections at the per-tenant in-flight quota"},
    {"server_rejected_transport_total", "counter", "queries",
     "rejections because the serving transport failed the batch's round"},
    {"server_batches_total", "counter", "batches",
     "dispatched EvaluateBatch windows across all classes"},
    {"server_updates_total", "counter", "epochs",
     "committed update epochs"},
    {"server_updates_rejected_total", "counter", "batches",
     "AddEdges batches refused whole for naming a node past the graph"},
    {"server_cache_hits_total", "counter", "queries",
     "answer-cache hits served without evaluation"},
    {"server_cache_misses_total", "counter", "queries",
     "enabled-cache lookups that missed"},
    {"server_cache_insertions_total", "counter", "entries",
     "answer-cache entries written after evaluation"},
    {"server_cache_evictions_total", "counter", "entries",
     "answer-cache LRU drops to hold the entry/byte budgets"},
    {"server_cache_invalidated_total", "counter", "entries",
     "answer-cache entries dropped by epoch advances"},
    {"server_transport_retries_total", "counter", "rounds",
     "in-round re-dispatches after a site's exchange failed"},
    {"server_transport_respawns_total", "counter", "workers",
     "worker re-establishments (respawn/reconnect) after the first Hello"},
    {"server_transport_degraded_total", "counter", "rounds",
     "site-rounds evaluated locally on the coordinator (degrade_local)"},
};

constexpr MetricInfo kGaugeInfos[] = {
    {"server_queue_depth_reach", "gauge", "queries",
     "pending entries in the reach class queue"},
    {"server_queue_depth_dist", "gauge", "queries",
     "pending entries in the dist class queue"},
    {"server_queue_depth_rpq", "gauge", "queries",
     "pending entries in the rpq class queue"},
    {"server_cache_entries", "gauge", "entries",
     "live answer-cache entries"},
    {"server_cache_bytes", "gauge", "bytes",
     "answer-cache footprint charged against the byte budget"},
    {"server_epoch", "gauge", "epochs", "committed update epoch"},
    {"server_epoch_lag", "gauge", "epochs",
     "committed epoch minus the stalest dispatcher's last answered epoch"},
    {"server_tenants_in_flight", "gauge", "tenants",
     "tenants with at least one admitted unanswered query"},
    {"server_transport_breakers_open", "gauge", "connections",
     "transport connections whose circuit breaker is open or half-open"},
};

constexpr MetricInfo kHistogramInfos[] = {
    {"server_batch_size", "histogram", "queries",
     "queries coalesced per dispatched batch"},
    {"server_batch_modeled_ms_reach", "histogram", "ms",
     "modeled time per reach batch window"},
    {"server_batch_modeled_ms_dist", "histogram", "ms",
     "modeled time per dist batch window"},
    {"server_batch_modeled_ms_rpq", "histogram", "ms",
     "modeled time per rpq batch window"},
    {"server_batch_wall_ms_reach", "histogram", "ms",
     "wall time per reach batch window"},
    {"server_batch_wall_ms_dist", "histogram", "ms",
     "wall time per dist batch window"},
    {"server_batch_wall_ms_rpq", "histogram", "ms",
     "wall time per rpq batch window"},
};

static_assert(std::size(kCounterInfos) ==
              static_cast<size_t>(CounterId::kCount));
static_assert(std::size(kGaugeInfos) == static_cast<size_t>(GaugeId::kCount));
static_assert(std::size(kHistogramInfos) ==
              static_cast<size_t>(HistogramId::kCount));

void AppendJsonNumber(std::string* out, double v) {
  // JSON has no inf/nan; clamp to null (never produced by the server in
  // practice, but the serializer must not emit invalid JSON).
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

}  // namespace

std::span<const MetricInfo> CounterInfos() { return kCounterInfos; }
std::span<const MetricInfo> GaugeInfos() { return kGaugeInfos; }
std::span<const MetricInfo> HistogramInfos() { return kHistogramInfos; }

ServerMetrics::ServerMetrics() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
}

double ServerMetrics::BucketUpper(size_t i) {
  // Bucket i covers (upper(i-1), 2^(i-10)]: 2^-10 ≈ 0.001 up to 2^20 ≈ 1e6.
  return std::ldexp(1.0, static_cast<int>(i) - 10);
}

void ServerMetrics::Observe(HistogramId id, double value) {
  MutexLock lock(&mu_);
  Histogram& h = histograms_[static_cast<size_t>(id)];
  size_t bucket = kNumBuckets;  // overflow unless a bound admits the value
  for (size_t i = 0; i < kNumBuckets; ++i) {
    if (value <= BucketUpper(i)) {
      bucket = i;
      break;
    }
  }
  ++h.buckets[bucket];
  h.min = h.count == 0 ? value : std::min(h.min, value);
  h.max = h.count == 0 ? value : std::max(h.max, value);
  ++h.count;
  h.sum += value;
}

HistogramSnapshot ServerMetrics::Summarize(const Histogram& h) {
  HistogramSnapshot snap;
  snap.count = h.count;
  snap.sum = h.sum;
  snap.min = h.min;
  snap.max = h.max;
  if (h.count == 0) return snap;
  const double quantiles[] = {0.50, 0.90, 0.99};
  double* outs[] = {&snap.p50, &snap.p90, &snap.p99};
  for (size_t q = 0; q < 3; ++q) {
    const double rank = quantiles[q] * static_cast<double>(h.count);
    uint64_t cumulative = 0;
    double estimate = h.max;
    for (size_t i = 0; i <= kNumBuckets; ++i) {
      if (h.buckets[i] == 0) continue;
      const uint64_t before = cumulative;
      cumulative += h.buckets[i];
      if (static_cast<double>(cumulative) < rank) continue;
      // Interpolate within the landing bucket, clamped to the observed
      // extremes so single-bucket histograms report exact values.
      const double lower = i == 0 ? 0.0 : BucketUpper(i - 1);
      const double upper = i == kNumBuckets ? h.max : BucketUpper(i);
      const double frac = (rank - static_cast<double>(before)) /
                          static_cast<double>(h.buckets[i]);
      estimate = lower + frac * (upper - lower);
      break;
    }
    *outs[q] = std::clamp(estimate, h.min, h.max);
  }
  return snap;
}

MetricsSnapshot ServerMetrics::Snapshot() const {
  MetricsSnapshot snap;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  MutexLock lock(&mu_);
  snap.gauges = gauges_;
  for (size_t i = 0; i < snap.histograms.size(); ++i) {
    snap.histograms[i] = Summarize(histograms_[i]);
  }
  return snap;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n    \"" : ",\n    \"";
    out += kCounterInfos[i].name;
    out += "\": ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(counters[i]));
    out += buf;
  }
  out += "\n  },\n  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n    \"" : ",\n    \"";
    out += kGaugeInfos[i].name;
    out += "\": ";
    AppendJsonNumber(&out, gauges[i]);
  }
  out += "\n  },\n  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i == 0 ? "\n    \"" : ",\n    \"";
    out += kHistogramInfos[i].name;
    out += "\": {\"count\": ";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(h.count));
    out += buf;
    const std::pair<const char*, double> fields[] = {
        {"sum", h.sum}, {"min", h.min}, {"max", h.max},
        {"p50", h.p50}, {"p90", h.p90}, {"p99", h.p99}};
    for (const auto& [name, value] : fields) {
      out += ", \"";
      out += name;
      out += "\": ";
      AppendJsonNumber(&out, value);
    }
    out += "}";
  }
  out += "\n  }\n}\n";
  return out;
}

}  // namespace pereach
