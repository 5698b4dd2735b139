#ifndef PEREACH_NET_CLUSTER_H_
#define PEREACH_NET_CLUSTER_H_

#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/fragment/fragmentation.h"
#include "src/net/metrics.h"
#include "src/net/transport.h"
#include "src/util/status.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/util/timer.h"

namespace pereach {

/// Cluster: one site per fragment plus a coordinator. HOW a serving round
/// executes is delegated to a Transport (DESIGN.md §13) chosen at
/// construction: in-process site evaluation on the pool (the default —
/// "threads simulate partitions") or real pereach_worker processes over
/// sockets. The cluster keeps the books either way: per-site visit counts,
/// traffic, message counts, and a modeled response time combining per-site
/// compute with the NetworkModel — modeled accounting is byte-identical
/// across backends because it charges the round's payloads, never the
/// transport envelope.
///
/// The three-phase pattern of the paper (§2.2) maps onto:
///   cluster.BeginQuery();
///   auto replies = cluster.RoundAll(query_bytes, local_eval);   // phases 1+2
///   ... assemble at the coordinator ...                         // phase 3
///   RunMetrics m = cluster.EndQuery();
///
/// A metrics window may also cover a whole query batch: the engine layer
/// (src/engine) multiplexes k queries into one broadcast payload and one
/// length-prefixed reply frame per query (Encoder::PutFrame /
/// Decoder::GetFrame), so a batch costs one Round — the accounting below
/// charges 2 latencies once per round, not per query.
///
/// Concurrency: metrics windows are per-thread. Each BeginQuery opens a
/// window owned by the calling thread; Round / Record* / SetQueriesServed
/// charge the caller's open window, and EndQuery closes it and returns its
/// metrics — the ONLY way to read a window's books (a last-completed-window
/// accessor would be a last-writer race under concurrent windows, so there
/// deliberately isn't one). Any number of threads may therefore run
/// interleaved windows over one cluster (the QueryServer's overlapping
/// per-class batches) without corrupting each other's books. A window's
/// calls must all come from the thread that opened it — site work still
/// runs on pool threads or workers, but the accounting itself happens on
/// the window's thread after the round joins.
class Cluster {
 public:
  /// `fragmentation` must outlive the cluster. `num_threads` == 0 picks
  /// hardware concurrency. `transport` selects the serving backend
  /// (default kSim).
  Cluster(const Fragmentation* fragmentation, const NetworkModel& net,
          size_t num_threads = 0, TransportOptions transport = {});

  ~Cluster();

  const Fragmentation& fragmentation() const { return *fragmentation_; }
  const NetworkModel& network() const { return net_; }

  /// Opens a fresh metrics window for the calling thread and starts its wall
  /// clock. The calling thread must not already have a window open.
  void BeginQuery();

  /// Marks the number of queries the calling thread's open window serves.
  /// Batch engines call this before EndQuery so metrics amortization
  /// (PerQueryModeledMs) is correct.
  void SetQueriesServed(size_t n);

  /// Stops the wall clock, closes the calling thread's window and returns
  /// its metrics. Windows that never declared a batch size count as one
  /// query.
  RunMetrics EndQuery();

  /// One SIMULATED communication round touching `sites`: the coordinator
  /// sends `broadcast_bytes` to each listed site (one message each), every
  /// site runs `fn` on its fragment in parallel on the pool and returns a
  /// reply payload (one message each; empty replies send no message).
  /// Records one visit per listed site and advances the modeled clock by
  ///   2·latency + max(site compute) + transfer(all bytes of the round).
  /// Always runs on the pool regardless of the serving transport — the
  /// baselines' bespoke site functions have no wire encoding, and their
  /// modeled numbers must not depend on the backend under test.
  std::vector<std::vector<uint8_t>> Round(
      const std::vector<SiteId>& sites, size_t broadcast_bytes,
      const std::function<std::vector<uint8_t>(const Fragment&)>& fn);

  /// Round() over all sites.
  std::vector<std::vector<uint8_t>> RoundAll(
      size_t broadcast_bytes,
      const std::function<std::vector<uint8_t>(const Fragment&)>& fn);

  /// One round on the SERVING transport: every listed site evaluates `spec`
  /// with site_runtime::RunSiteRound — in process over its fragment and
  /// `local`'s context for it (kSim, and kSocket's degraded sites), or on
  /// its worker (kSocket). Fails — instead of aborting — when the spec does
  /// not decode, or a worker is dead, hung past its read deadline, or
  /// framed garbage; the books are only charged on success, and the failed
  /// connection re-establishes on its next round.
  Result<std::vector<std::vector<uint8_t>>> TryRound(
      const std::vector<SiteId>& sites, const RoundSpec& spec,
      FragmentContextCache* local);

  /// TryRound() over all sites.
  Result<std::vector<std::vector<uint8_t>>> TryRoundAll(
      const RoundSpec& spec, FragmentContextCache* local);

  /// Re-ships post-update fragment state to transports that hold copies
  /// (no-op on the simulated backend). Call after mutating the graph, under
  /// the same exclusion that gates evaluations (the server's writer-held
  /// epoch gate) so no round is in flight.
  Status SyncFragments();

  /// Adds coordinator-side compute (assembling) to the modeled clock.
  void AddCoordinatorWorkMs(double ms);

  // --- low-level recorders for engines with bespoke communication shapes
  //     (the message-passing baseline and MapReduce) ---

  /// Records `n` message deliveries to `site` (visit semantics: a visit is
  /// one communication addressed to a site, matching the paper's counting
  /// for the message-passing baseline).
  void RecordVisits(SiteId site, size_t n);

  /// Records messages and their payload bytes on the wire.
  void RecordTraffic(size_t bytes, size_t num_messages);

  /// Advances the modeled clock by one bespoke round.
  void RecordModeledRound(double max_site_compute_ms, size_t round_bytes);

  ThreadPool* pool() { return pool_.get(); }

  /// The serving transport (test hook: WorkerPidsForTest, fault injection).
  Transport* transport() { return transport_.get(); }

  /// Const view for metric sampling (Transport::Health is const).
  const Transport* transport() const { return transport_.get(); }

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(Cluster);

  struct Window {
    RunMetrics metrics;
    StopWatch watch;
  };

  /// Charges the caller's open window with one completed round: the
  /// broadcast bytes once per listed site plus every non-empty reply.
  void ChargeRound(const std::vector<SiteId>& sites,
                   size_t broadcast_bytes,
                   const std::vector<std::vector<uint8_t>>& replies,
                   double max_compute_ms);

  std::vector<SiteId> AllSites() const;

  /// The calling thread's open window. CHECK-fails when the thread has no
  /// window (a Round/Record outside BeginQuery..EndQuery).
  Window& ActiveWindowLocked() PEREACH_REQUIRES(mu_);

  const Fragmentation* fragmentation_;
  NetworkModel net_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Transport> transport_;

  mutable Mutex mu_{LockRank::kClusterMetrics};
  std::unordered_map<std::thread::id, Window> windows_ PEREACH_GUARDED_BY(mu_);
};

}  // namespace pereach

#endif  // PEREACH_NET_CLUSTER_H_
