#include "src/net/cluster.h"

#include <algorithm>
#include <thread>
#include <utility>

namespace pereach {

Cluster::Cluster(const Fragmentation* fragmentation, const NetworkModel& net,
                 size_t num_threads, TransportOptions transport)
    : fragmentation_(fragmentation), net_(net) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(num_threads);
  transport_ = MakeTransport(transport, fragmentation_, pool_.get());
}

Cluster::~Cluster() { transport_->Shutdown(); }

Cluster::Window& Cluster::ActiveWindowLocked() {
  auto it = windows_.find(std::this_thread::get_id());
  PEREACH_CHECK(it != windows_.end() &&
                "cluster used outside a BeginQuery..EndQuery window");
  return it->second;
}

void Cluster::BeginQuery() {
  MutexLock lock(&mu_);
  auto [it, inserted] = windows_.try_emplace(std::this_thread::get_id());
  PEREACH_CHECK(inserted && "thread already has an open metrics window");
  it->second.metrics.site_visits.assign(fragmentation_->num_fragments(), 0);
  it->second.watch.Restart();
}

void Cluster::SetQueriesServed(size_t n) {
  MutexLock lock(&mu_);
  ActiveWindowLocked().metrics.queries = n;
}

RunMetrics Cluster::EndQuery() {
  MutexLock lock(&mu_);
  Window& w = ActiveWindowLocked();
  w.metrics.wall_ms = w.watch.ElapsedMs();
  if (w.metrics.queries == 0) w.metrics.queries = 1;
  RunMetrics out = std::move(w.metrics);
  windows_.erase(std::this_thread::get_id());
  return out;
}

void Cluster::ChargeRound(const std::vector<SiteId>& sites, size_t sent_bytes,
                          const std::vector<std::vector<uint8_t>>& replies,
                          double max_compute_ms) {
  const size_t k = sites.size();
  PEREACH_CHECK_EQ(replies.size(), k);

  // The books charge the round's PAYLOADS — what each site was sent and
  // every non-empty reply — never the transport envelope, so modeled
  // numbers are identical across backends.
  size_t round_bytes = sent_bytes;
  size_t num_messages = k;  // coordinator -> site requests
  for (const std::vector<uint8_t>& reply : replies) {
    if (!reply.empty()) {
      round_bytes += reply.size();
      ++num_messages;
    }
  }

  MutexLock lock(&mu_);
  RunMetrics& m = ActiveWindowLocked().metrics;
  for (size_t i = 0; i < k; ++i) m.site_visits[sites[i]] += 1;
  m.traffic_bytes += round_bytes;
  m.messages += num_messages;
  m.rounds += 1;
  m.modeled_ms +=
      2 * net_.latency_ms + max_compute_ms + net_.TransferMs(round_bytes);
}

std::vector<std::vector<uint8_t>> Cluster::Round(
    const std::vector<SiteId>& sites, size_t broadcast_bytes,
    const std::function<std::vector<uint8_t>(const Fragment&)>& fn) {
  const size_t k = sites.size();
  std::vector<std::vector<uint8_t>> replies(k);
  std::vector<double> compute_ms(k, 0.0);
  pool_->ParallelFor(k, [&](size_t i) {
    StopWatch watch;
    replies[i] = fn(fragmentation_->fragment(sites[i]));
    compute_ms[i] = watch.ElapsedMs();
  });
  double max_compute = 0.0;
  for (double ms : compute_ms) max_compute = std::max(max_compute, ms);
  ChargeRound(sites, broadcast_bytes * k, replies, max_compute);
  return replies;
}

std::vector<std::vector<uint8_t>> Cluster::RoundAll(
    size_t broadcast_bytes,
    const std::function<std::vector<uint8_t>(const Fragment&)>& fn) {
  return Round(AllSites(), broadcast_bytes, fn);
}

Result<std::vector<std::vector<uint8_t>>> Cluster::TryRound(
    const std::vector<SiteId>& sites, const RoundSpec& spec,
    FragmentContextCache* local) {
  PEREACH_CHECK_EQ(spec.payloads.size(), sites.size());
  std::vector<std::vector<uint8_t>> replies;
  double max_compute = 0.0;
  Status s = transport_->Execute(sites, spec, local, &replies, &max_compute);
  if (!s.ok()) return s;
  size_t sent_bytes = 0;
  for (const std::vector<uint8_t>& payload : spec.payloads) {
    sent_bytes += payload.size();
  }
  ChargeRound(sites, sent_bytes, replies, max_compute);
  return replies;
}

Result<std::vector<std::vector<uint8_t>>> Cluster::TryRoundAll(
    const RoundSpec& spec, FragmentContextCache* local) {
  return TryRound(AllSites(), spec, local);
}

Status Cluster::SyncFragments() { return transport_->SyncFragments(); }

std::vector<SiteId> Cluster::AllSites() const {
  std::vector<SiteId> all(fragmentation_->num_fragments());
  for (SiteId s = 0; s < all.size(); ++s) all[s] = s;
  return all;
}

void Cluster::AddCoordinatorWorkMs(double ms) {
  MutexLock lock(&mu_);
  ActiveWindowLocked().metrics.modeled_ms += ms;
}

void Cluster::RecordVisits(SiteId site, size_t n) {
  MutexLock lock(&mu_);
  RunMetrics& m = ActiveWindowLocked().metrics;
  PEREACH_CHECK_LT(site, m.site_visits.size());
  m.site_visits[site] += n;
}

void Cluster::RecordTraffic(size_t bytes, size_t num_messages) {
  MutexLock lock(&mu_);
  RunMetrics& m = ActiveWindowLocked().metrics;
  m.traffic_bytes += bytes;
  m.messages += num_messages;
}

void Cluster::RecordModeledRound(double max_site_compute_ms,
                                 size_t round_bytes) {
  MutexLock lock(&mu_);
  RunMetrics& m = ActiveWindowLocked().metrics;
  m.rounds += 1;
  m.modeled_ms += 2 * net_.latency_ms + max_site_compute_ms +
                  net_.TransferMs(round_bytes);
}

}  // namespace pereach
