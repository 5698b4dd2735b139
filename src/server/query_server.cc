#include "src/server/query_server.h"

#include <algorithm>

#include "src/engine/query_key.h"
#include "src/util/logging.h"

namespace pereach {

namespace {

RejectReason PushOutcomeToReason(PushOutcome outcome) {
  switch (outcome) {
    case PushOutcome::kAccepted:
      return RejectReason::kNone;
    case PushOutcome::kShutdown:
      return RejectReason::kStopping;
    case PushOutcome::kQueueFull:
      return RejectReason::kQueueFull;
    case PushOutcome::kQueueStale:
      return RejectReason::kQueueStale;
  }
  return RejectReason::kStopping;
}

CounterId ReasonCounter(RejectReason reason) {
  switch (reason) {
    case RejectReason::kStopping:
      return CounterId::kRejectedStopping;
    case RejectReason::kMalformed:
      return CounterId::kRejectedMalformed;
    case RejectReason::kQueueFull:
      return CounterId::kRejectedQueueFull;
    case RejectReason::kQueueStale:
      return CounterId::kRejectedQueueStale;
    case RejectReason::kTenantQuota:
      return CounterId::kRejectedTenantQuota;
    case RejectReason::kTransportError:
      return CounterId::kRejectedTransport;
    case RejectReason::kNone:
      break;
  }
  PEREACH_CHECK(false && "rejecting with reason kNone");
  return CounterId::kQueriesRejected;
}

}  // namespace

QueryServer::QueryServer(IncrementalReachIndex* index, ServerOptions options)
    : index_(index),
      options_(options),
      cluster_(&index->fragmentation(), options.net, options.cluster_threads,
               options.transport),
      index_epoch_base_(index->epoch()),
      num_nodes_(index->fragmentation().num_nodes()),
      cache_(options.cache) {
  for (size_t c = 0; c < kNumClasses; ++c) {
    queues_[c] = std::make_unique<BatchQueue>(options_.policy,
                                              options_.admission);
    engines_[c] = std::make_unique<PartialEvalEngine>(&cluster_, options_.eval);
  }
  // All update flows share one invalidation path (§8): the index reports
  // each fragment an update structurally touches, and every class engine
  // drops exactly that context. Runs under the writer's exclusive gate, so
  // no batch is mid-flight over the caches being dropped.
  index_->SetUpdateListener([this](SiteId site) {
    for (auto& engine : engines_) engine->InvalidateFragment(site);
  });
  for (size_t c = 0; c < kNumClasses; ++c) {
    dispatchers_[c] = std::thread([this, c] { DispatcherLoop(c); });
  }
}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Stop() {
  MutexLock lock(&stop_mu_);  // serialize concurrent Stops
  stopping_.store(true, std::memory_order_release);
  for (auto& queue : queues_) queue->Shutdown();
  for (auto& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
  // Detach under the exclusive gate: a concurrent AddEdges writer may be
  // inside the index invoking the listener, and assigning the std::function
  // while it runs would race. The uncommitted writer leaves the epoch
  // untouched.
  EpochGate::Write writer(&gate_);
  index_->SetUpdateListener(nullptr);
}

void QueryServer::Reject(std::promise<ServedAnswer>* promise,
                         RejectReason reason) {
  metrics_.AddCounter(CounterId::kQueriesRejected);
  metrics_.AddCounter(ReasonCounter(reason));
  ServedAnswer rejected;
  rejected.epoch = gate_.epoch();
  rejected.rejected = true;
  rejected.reject_reason = reason;
  promise->set_value(std::move(rejected));
}

std::future<ServedAnswer> QueryServer::Submit(Query query, TenantId tenant) {
  const size_t class_idx = static_cast<size_t>(query.kind);
  PEREACH_CHECK_LT(class_idx, kNumClasses);
  metrics_.AddCounter(CounterId::kQueriesSubmitted);
  PendingQuery pending;
  pending.query = std::move(query);
  pending.tenant = tenant;
  std::future<ServedAnswer> future = pending.promise.get_future();
  // The stopping_ probe is an early out; the authoritative admission test is
  // Push itself, which decides under the queue lock. A submission that loses
  // the race against Stop() — probe passes, queue shuts down, Push rejects —
  // resolves as rejected here rather than aborting in the queue.
  // A malformed query — an oversized regex leaves Query::Rpq with no
  // automaton, or an endpoint names a node the graph does not have — is
  // rejected here instead of CHECK-aborting (or misanswering in) the
  // dispatcher's engine: the client sees a rejected answer, the server
  // keeps serving everyone else.
  if (!pending.query.well_formed() || pending.query.source >= num_nodes_ ||
      pending.query.target >= num_nodes_) {
    Reject(&pending.promise, RejectReason::kMalformed);
    return future;
  }
  if (stopping_.load(std::memory_order_acquire)) {
    Reject(&pending.promise, RejectReason::kStopping);
    return future;
  }
  // Answer cache, consulted BEFORE admission: a hit consumes no queue
  // space, no quota, and no evaluation round — exactly the load the cache
  // exists to shed. The lookup epoch is the committed epoch at this
  // instant; a writer committing concurrently just misses (the entry set
  // was invalidated), it can never produce a stale hit.
  if (options_.cache.enabled) {
    pending.cache_key = CanonicalQueryKey(pending.query);
    pending.has_cache_key = true;
    const uint64_t lookup_epoch = gate_.epoch();
    if (const std::optional<CachedAnswer> hit =
            cache_.Lookup(pending.cache_key, lookup_epoch)) {
      metrics_.AddCounter(CounterId::kQueriesAnswered);
      ServedAnswer served;
      served.answer.reachable = hit->reachable;
      served.answer.distance = hit->distance;
      served.epoch = lookup_epoch;
      served.batch_size = 1;
      served.cache_hit = true;
      pending.promise.set_value(std::move(served));
      return future;
    }
  }
  // Tenant quota: decided under drain_mu_ together with the in-flight
  // charge so completion (which decrements under the same lock) can never
  // interleave between check and charge.
  if (options_.admission.tenant_quota > 0) {
    bool over_quota = false;
    {
      MutexLock lock(&drain_mu_);
      size_t& tenant_count = tenant_in_flight_[tenant];
      if (tenant_count >= options_.admission.tenant_quota) {
        over_quota = true;
      } else {
        ++tenant_count;
        ++in_flight_;
      }
    }
    if (over_quota) {
      Reject(&pending.promise, RejectReason::kTenantQuota);
      return future;
    }
  } else {
    MutexLock lock(&drain_mu_);
    ++in_flight_;
  }
  const TenantId pending_tenant = pending.tenant;
  const PushOutcome outcome = queues_[class_idx]->Push(std::move(pending));
  if (outcome != PushOutcome::kAccepted) {
    {
      MutexLock lock(&drain_mu_);
      if (options_.admission.tenant_quota > 0) {
        const auto it = tenant_in_flight_.find(pending_tenant);
        if (it != tenant_in_flight_.end() && --it->second == 0) {
          tenant_in_flight_.erase(it);
        }
      }
      if (--in_flight_ == 0) drained_.NotifyAll();
    }
    Reject(&pending.promise, PushOutcomeToReason(outcome));
  }
  return future;
}

uint64_t QueryServer::AddEdge(NodeId u, NodeId v) {
  const std::pair<NodeId, NodeId> edge(u, v);
  return AddEdges(std::span<const std::pair<NodeId, NodeId>>(&edge, 1));
}

uint64_t QueryServer::AddEdges(
    std::span<const std::pair<NodeId, NodeId>> edges) {
  if (edges.empty()) return gate_.epoch();  // the index ignores empty batches
  // A node past the graph would abort the index mid-batch; refuse the whole
  // batch before it takes the writer gate, like an empty one.
  for (const auto& [u, v] : edges) {
    if (u >= num_nodes_ || v >= num_nodes_) {
      metrics_.AddCounter(CounterId::kUpdatesRejected);
      return gate_.epoch();
    }
  }
  EpochGate::Write writer(&gate_);
  // Exclusive: every in-flight batch has drained, none enters until commit.
  // The index rebuilds the fragmentation in place and fires the listener for
  // each touched fragment; Cluster reads the fragmentation only inside
  // reader-held batches, so the swap is invisible to queries.
  index_->AddEdges(edges);
  // Ship the updated fragments to the serving workers while still
  // exclusive, so no batch can round over stale remote state. A failed sync
  // only closes the affected connections: the next round re-establishes and
  // the reconnect handshake ships the CURRENT fragment, so a worker can
  // never serve pre-update answers after this commit.
  Status sync = cluster_.SyncFragments();
  (void)sync;
  const uint64_t epoch = writer.Commit();
  // Epoch-keyed cache entries can never be served at the new epoch; drop
  // them while still under the exclusive gate, so no reader can look up
  // between commit and invalidation.
  cache_.OnEpochAdvance(epoch);
  // Updates during this server's lifetime all flow through this writer
  // path, so the gate's committed epoch tracks the index's applied-update
  // count exactly, offset by whatever the index had applied pre-server.
  PEREACH_CHECK_EQ(epoch + index_epoch_base_, index_->epoch());
  metrics_.AddCounter(CounterId::kUpdates);
  {
    MutexLock lock(&stats_mu_);
    ++stats_.updates;
  }
  return epoch;
}

void QueryServer::Drain() {
  MutexLock lock(&drain_mu_);
  while (in_flight_ != 0) drained_.Wait(&drain_mu_);
}

ServerStats QueryServer::stats() const {
  MutexLock lock(&stats_mu_);
  return stats_;
}

MetricsSnapshot QueryServer::Metrics() const {
  // Sample the gauges at call time; counters and histograms already live
  // in the registry.
  const uint64_t epoch = gate_.epoch();
  static constexpr GaugeId kDepthGauges[kNumClasses] = {
      GaugeId::kQueueDepthReach, GaugeId::kQueueDepthDist,
      GaugeId::kQueueDepthRpq};
  double max_lag = 0;
  for (size_t c = 0; c < kNumClasses; ++c) {
    const size_t depth = queues_[c]->pending();
    metrics_.SetGauge(kDepthGauges[c], static_cast<double>(depth));
    // Epoch lag counts only dispatchers with QUEUED work: an idle class is
    // current by definition, a backlogged one shows how many commits ago
    // it last answered.
    if (depth > 0) {
      const uint64_t answered =
          last_answered_epoch_[c].load(std::memory_order_relaxed);
      if (epoch > answered) {
        max_lag = std::max(max_lag, static_cast<double>(epoch - answered));
      }
    }
  }
  metrics_.SetGauge(GaugeId::kEpoch, static_cast<double>(epoch));
  metrics_.SetGauge(GaugeId::kEpochLag, max_lag);
  metrics_.SetGauge(GaugeId::kCacheEntries,
                    static_cast<double>(cache_.entries()));
  metrics_.SetGauge(GaugeId::kCacheBytes, static_cast<double>(cache_.bytes()));
  {
    MutexLock lock(&drain_mu_);
    metrics_.SetGauge(GaugeId::kTenantsInFlight,
                      static_cast<double>(tenant_in_flight_.size()));
  }
  // The cache keeps its own monotonic books; import them so one snapshot
  // carries the whole surface.
  const AnswerCacheCounters cache = cache_.counters();
  metrics_.SetCounter(CounterId::kCacheHits, cache.hits);
  metrics_.SetCounter(CounterId::kCacheMisses, cache.misses);
  metrics_.SetCounter(CounterId::kCacheInsertions, cache.insertions);
  metrics_.SetCounter(CounterId::kCacheEvictions, cache.evictions);
  metrics_.SetCounter(CounterId::kCacheInvalidated, cache.invalidated);
  // The transport keeps its own recovery books (retries, respawns,
  // degraded rounds, breaker state) — import them the same way.
  if (const Transport* transport = cluster_.transport()) {
    const TransportHealth health = transport->Health();
    metrics_.SetCounter(CounterId::kTransportRetries, health.round_retries);
    metrics_.SetCounter(CounterId::kTransportRespawns, health.worker_respawns);
    metrics_.SetCounter(CounterId::kTransportDegraded,
                        health.degraded_site_rounds);
    metrics_.SetGauge(GaugeId::kBreakersOpen,
                      static_cast<double>(health.breakers_open));
  }
  return metrics_.Snapshot();
}

void QueryServer::DispatcherLoop(size_t class_idx) {
  BatchQueue& queue = *queues_[class_idx];
  PartialEvalEngine& engine = *engines_[class_idx];
  while (true) {
    std::vector<PendingQuery> pending = queue.PopBatch();
    if (pending.empty()) return;  // shut down and drained

    std::vector<Query> batch;
    batch.reserve(pending.size());
    for (PendingQuery& p : pending) batch.push_back(std::move(p.query));

    uint64_t epoch = 0;
    BatchAnswer result;
    {
      // Reader-held for the whole round trip: the batch's queries all see
      // the same committed snapshot.
      EpochGate::Read reader(&gate_);
      epoch = reader.epoch();
      result = engine.EvaluateBatch(batch);
    }

    // Tenant-quota charges are released BEFORE the promises resolve: a
    // client that saw its future resolve must not observe its own query
    // still charged (a resubmit racing the books would be spuriously
    // quota-rejected, and a quiesced server could show a non-zero
    // tenants-in-flight gauge). The in-flight count Drain() waits on drops
    // only AFTER every promise is set, so Drain() returns with every
    // submitted query answered.
    const auto release_quota = [&] {
      if (options_.admission.tenant_quota == 0) return;
      MutexLock lock(&drain_mu_);
      for (const PendingQuery& p : pending) {
        const auto it = tenant_in_flight_.find(p.tenant);
        if (it != tenant_in_flight_.end() && --it->second == 0) {
          tenant_in_flight_.erase(it);
        }
      }
    };
    const auto release_in_flight = [&] {
      MutexLock lock(&drain_mu_);
      in_flight_ -= pending.size();
      if (in_flight_ == 0) drained_.NotifyAll();
    };

    if (!result.status.ok()) {
      // The serving transport failed the round carrying this batch (dead
      // worker, expired deadline, corrupt frame). Its answers are
      // unspecified, so the whole batch resolves rejected — charges
      // released, nothing cached, no answered/latency books — and the
      // dispatcher keeps serving; the transport re-establishes lazily on
      // the next round.
      release_quota();
      for (PendingQuery& p : pending) {
        Reject(&p.promise, RejectReason::kTransportError);
      }
      release_in_flight();
      continue;
    }

    {
      MutexLock lock(&stats_mu_);
      stats_.queries += pending.size();
      stats_.batches += 1;
      stats_.max_batch = std::max(stats_.max_batch, pending.size());
      stats_.sum_modeled_ms += result.metrics.modeled_ms;
      stats_.sum_wall_ms += result.metrics.wall_ms;
      stats_.modeled_ms_by_class[class_idx] += result.metrics.modeled_ms;
    }
    metrics_.AddCounter(CounterId::kBatches);
    metrics_.AddCounter(CounterId::kQueriesAnswered, pending.size());
    metrics_.Observe(HistogramId::kBatchSize,
                     static_cast<double>(pending.size()));
    metrics_.Observe(
        static_cast<HistogramId>(
            static_cast<size_t>(HistogramId::kModeledMsReach) + class_idx),
        result.metrics.modeled_ms);
    metrics_.Observe(
        static_cast<HistogramId>(
            static_cast<size_t>(HistogramId::kWallMsReach) + class_idx),
        result.metrics.wall_ms);
    last_answered_epoch_[class_idx].store(epoch, std::memory_order_relaxed);

    release_quota();
    for (size_t i = 0; i < pending.size(); ++i) {
      // Feed the answer cache before resolving the promise: a client
      // resubmitting the moment its future resolves must hit. Insert
      // drops the write harmlessly if a commit invalidated this epoch
      // while the batch drained.
      if (pending[i].has_cache_key) {
        cache_.Insert(pending[i].cache_key, epoch,
                      CachedAnswer{result.answers[i].reachable,
                                   result.answers[i].distance});
      }
      ServedAnswer served;
      served.answer = std::move(result.answers[i]);
      served.answer.metrics = result.metrics;  // whole-batch window
      served.epoch = epoch;
      served.batch_size = pending.size();
      pending[i].promise.set_value(std::move(served));
    }
    release_in_flight();
  }
}

}  // namespace pereach
