// Closed-loop multi-client serving benchmark: N client threads submit a
// randomized reach/dist/rpq mix to a QueryServer and wait for each answer
// before sending the next (closed loop), optionally with a writer thread
// applying edge updates through the snapshot path. Two configurations are
// compared on identical workloads:
//   per-query  — window 0, batch cap 1: every query pays its own round(s);
//   adaptive   — time/size window coalesces concurrent arrivals per class
//                into one EvaluateBatch round.
// Reported: wall throughput, modeled per-query response time (amortized
// over each query's batch window), average batch size, and rounds. The
// adaptive rows should dominate on both throughput and modeled cost — the
// amortization argument of the batch engine, now under concurrent load.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/fragment/partitioner.h"
#include "src/server/query_server.h"

namespace pereach {
namespace bench {
namespace {

struct ServerBenchFlags {
  size_t clients = 8;
  uint32_t window_us = 200;
  size_t updates = 0;
  bool mixed = false;  // --mix=all: add dist/rpq to the reach stream
  // --boundary-index: reach dispatchers answer through the coordinator's
  // boundary label, and dist dispatchers through the standing weighted
  // boundary graph, instead of solving a BES per query.
  bool boundary_index = false;
  // --cache=on: enable the answer cache in the headline per-query/adaptive
  // configurations too (the dedicated repeated-mix series below always
  // compares cache off vs on regardless of this flag).
  bool cache = false;
  // --cache-entries=N: answer-cache entry budget for every cached run.
  size_t cache_entries = 4096;
  // --hot=K: number of distinct queries in the repeated mix the cache
  // series replays (clients draw uniformly from this pool, so every query
  // past a pool member's first submission can hit).
  size_t hot = 16;
  // --queue-budget=N: per-class queue entry budget of the overload series
  // (clients ≫ budget drives rejections instead of queue growth).
  size_t queue_budget = 4;
  // --tenant-quota=N: per-tenant in-flight quota of the overload series
  // (0 = unlimited).
  size_t tenant_quota = 0;
  // --metrics-json=PATH: write the final run's full ServerMetrics snapshot
  // (schema in docs/OPERATIONS.md) to PATH.
  std::string metrics_json;
  // --transport=sim|socket: serving transport behind the cluster
  // (DESIGN.md §13). sim answers rounds in-process (the modeled numbers are
  // the same either way); socket spawns one pereach_worker process per
  // fragment and the wall columns become real multi-process serving time.
  TransportBackend transport = TransportBackend::kSim;
  // --chaos: append a fault-injected series (seeded FaultPlan that kills
  // every worker at least once plus random kill/hang/drop/corrupt/delay
  // draws). The run must complete every batch with zero transport
  // rejections — recovery via retry/respawn/degradation is the contract.
  bool chaos = false;
};

struct ConfigResult {
  double wall_ms = 0;
  double modeled_qps = 0;     // queries / modeled makespan (max over class
                              // dispatchers of their serialized batches)
  double avg_modeled_ms = 0;  // per query, amortized over its batch
  double avg_batch = 0;
  size_t batches = 0;
  std::array<double, 3> modeled_by_class{};
  double hit_rate = 0;        // cache hits / submitted (client-observed)
  double rejection_rate = 0;  // rejected / submitted (client-observed)
  std::string metrics_json;   // full ServerMetrics snapshot at drain
  // Wall-clock serving time, measured at the clients around Submit().get():
  // host throughput plus latency percentiles over every answered query.
  // Next to the modeled columns these show what the chosen transport
  // actually costs end to end (sim: dispatch+compute; socket: that plus
  // real frame encode/decode and kernel round trips per round).
  double wall_qps = 0;
  double wall_p50_ms = 0;
  double wall_p90_ms = 0;
  double wall_p99_ms = 0;
  // Recovery books sampled from the final metrics snapshot (zeros for the
  // sim transport): the chaos series asserts on these.
  double transport_rejected = 0;
  double transport_retries = 0;
  double transport_respawns = 0;
  double transport_degraded = 0;
};

/// Percentile over an unsorted latency sample (nearest-rank; sorts a copy).
double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double position = p * static_cast<double>(sample.size() - 1);
  const size_t rank = static_cast<size_t>(position + 0.5);
  return sample[std::min(rank, sample.size() - 1)];
}

const char* TransportName(TransportBackend backend) {
  switch (backend) {
    case TransportBackend::kSim:
      return "sim";
    case TransportBackend::kSocket:
      return "socket";
  }
  return "sim";
}

// Default workload: the paper's primary class q_r, whose warm-path compute
// (cached closure rows) is small enough that round latency — the thing
// batching amortizes — is visible. --mix=all adds bounded and regular
// queries; regular queries draw their automata from a small shared pool —
// serving workloads repeat regexes heavily, which is exactly what the
// signature-cached glued product graphs amortize across.
Query MakeWorkloadQuery(size_t n, const std::vector<QueryAutomaton>& automata,
                        bool mixed, Rng* rng) {
  const NodeId s = static_cast<NodeId>(rng->Uniform(n));
  const NodeId t = static_cast<NodeId>(rng->Uniform(n));
  const uint64_t kind = mixed ? rng->Uniform(10) : 0;
  if (kind < 7) return Query::Reach(s, t);
  if (kind < 9) {
    return Query::Dist(s, t, static_cast<uint32_t>(1 + rng->Uniform(8)));
  }
  return Query::Rpq(s, t, automata[rng->Uniform(automata.size())]);
}

// Runs one server configuration over the closed-loop workload. With a
// non-null `hot_pool` clients draw from that fixed pool instead of fresh
// random queries (the repeated mix of the cache series); `cache` and
// `admission` harden the server per DESIGN.md §11.
ConfigResult RunConfig(const Graph& g, const std::vector<SiteId>& part,
                       size_t k_sites, const BenchOptions& opts,
                       const ServerBenchFlags& flags, const BatchPolicy& policy,
                       const std::vector<QueryAutomaton>& automata,
                       const AnswerCacheOptions& cache = {},
                       const AdmissionOptions& admission = {},
                       const std::vector<Query>* hot_pool = nullptr,
                       const FaultPlan* fault_plan = nullptr) {
  IncrementalReachIndex index(g, part, k_sites);

  ServerOptions options;
  options.policy = policy;
  options.net = BenchNetwork();
  options.cache = cache;
  options.admission = admission;
  if (fault_plan != nullptr) options.transport.fault_plan = *fault_plan;
  // Closure form: warm serving rides the cached closure rows, so per-query
  // site compute is the O(|cond|) sweep of Theorem 1, not a fresh localEval
  // — the regime the paper's guarantees (and batching) are about. Applied
  // to both configurations, so the comparison stays fair.
  options.eval.form = EquationForm::kClosure;
  options.transport.backend = flags.transport;
  if (flags.boundary_index) {
    options.eval.reach_path = ReachAnswerPath::kBoundaryIndex;
    options.eval.dist_path = DistAnswerPath::kBoundaryIndex;
    options.eval.rpq_path = RpqAnswerPath::kBoundaryIndex;
  }
  QueryServer server(&index, options);

  // Warm the per-fragment caches and the standing indexes of every class so
  // both configurations start hot; the measured numbers below are deltas
  // over this snapshot, so the one-time context/row/product builds (paid
  // once per automaton per epoch in steady serving) don't pollute the
  // recorded throughput.
  const NodeId last = static_cast<NodeId>(g.NumNodes() - 1);
  server.Submit(Query::Reach(0, last)).get();
  if (flags.mixed) {
    server.Submit(Query::Dist(0, last, 8)).get();
    for (const QueryAutomaton& a : automata) {
      server.Submit(Query::Rpq(0, last, a)).get();
    }
  }
  const ServerStats warm = server.stats();

  std::vector<double> modeled_sum(flags.clients, 0.0);
  std::vector<size_t> hits(flags.clients, 0), rejected(flags.clients, 0);
  std::vector<std::vector<double>> latencies(flags.clients);
  std::vector<std::thread> threads;
  StopWatch wall;
  for (size_t c = 0; c < flags.clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(opts.seed * 1000 + c);
      const size_t n = g.NumNodes();
      latencies[c].reserve(opts.queries);
      for (size_t i = 0; i < opts.queries; ++i) {
        const Query query =
            hot_pool != nullptr
                ? (*hot_pool)[rng.Uniform(hot_pool->size())]
                : MakeWorkloadQuery(n, automata, flags.mixed, &rng);
        // Each client is its own tenant, so a quota set via --tenant-quota
        // bounds every client's in-flight share symmetrically.
        StopWatch submit_watch;
        const ServedAnswer served =
            server.Submit(query, static_cast<TenantId>(c)).get();
        if (served.rejected) {
          ++rejected[c];
          continue;
        }
        latencies[c].push_back(submit_watch.ElapsedMs());
        if (served.cache_hit) ++hits[c];
        modeled_sum[c] += served.answer.metrics.PerQueryModeledMs();
      }
    });
  }
  std::thread writer;
  if (flags.updates > 0) {
    writer = std::thread([&] {
      Rng rng(opts.seed + 99);
      const size_t n = g.NumNodes();
      for (size_t u = 0; u < flags.updates; ++u) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        server.AddEdge(static_cast<NodeId>(rng.Uniform(n)),
                       static_cast<NodeId>(rng.Uniform(n)));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_ms = wall.ElapsedMs();
  if (writer.joinable()) writer.join();

  const ServerStats stats = server.stats();
  ConfigResult result;
  result.wall_ms = wall_ms;
  const size_t total = flags.clients * opts.queries;
  for (size_t c = 0; c < result.modeled_by_class.size(); ++c) {
    result.modeled_by_class[c] =
        stats.modeled_ms_by_class[c] - warm.modeled_ms_by_class[c];
  }
  // Throughput in the simulator's own terms: the modeled time to drain the
  // workload is bounded by the busiest class dispatcher (classes overlap,
  // batches within a class serialize). Wall q/s on a small CI box measures
  // host CPU, not the WAN the NetworkModel simulates.
  double makespan_ms = 0;
  for (double ms : result.modeled_by_class) {
    makespan_ms = std::max(makespan_ms, ms);
  }
  result.modeled_qps = static_cast<double>(total) / (makespan_ms / 1000.0);
  double modeled_total = 0;
  for (double m : modeled_sum) modeled_total += m;
  result.avg_modeled_ms = modeled_total / static_cast<double>(total);
  const size_t measured_batches = stats.batches - warm.batches;
  // Under a hot pool, most submissions hit the cache and never reach a
  // dispatcher, so the measured window can legitimately contain batches for
  // only the pool's first occurrences.
  result.avg_batch =
      measured_batches == 0
          ? 0.0
          : static_cast<double>(stats.queries - warm.queries) /
                static_cast<double>(measured_batches);
  result.batches = measured_batches;
  size_t total_hits = 0, total_rejected = 0;
  for (size_t h : hits) total_hits += h;
  for (size_t r : rejected) total_rejected += r;
  result.hit_rate =
      static_cast<double>(total_hits) / static_cast<double>(total);
  result.rejection_rate =
      static_cast<double>(total_rejected) / static_cast<double>(total);
  result.metrics_json = server.MetricsJson();
  std::vector<double> all_latencies;
  all_latencies.reserve(total);
  for (const std::vector<double>& per_client : latencies) {
    all_latencies.insert(all_latencies.end(), per_client.begin(),
                         per_client.end());
  }
  result.wall_qps = static_cast<double>(all_latencies.size()) /
                    (wall_ms / 1000.0);
  result.wall_p50_ms = Percentile(all_latencies, 0.50);
  result.wall_p90_ms = Percentile(all_latencies, 0.90);
  result.wall_p99_ms = Percentile(all_latencies, 0.99);
  const MetricsSnapshot snap = server.Metrics();
  result.transport_rejected = static_cast<double>(
      snap.counter(CounterId::kRejectedTransport));
  result.transport_retries =
      static_cast<double>(snap.counter(CounterId::kTransportRetries));
  result.transport_respawns =
      static_cast<double>(snap.counter(CounterId::kTransportRespawns));
  result.transport_degraded =
      static_cast<double>(snap.counter(CounterId::kTransportDegraded));
  return result;
}

int Run(int argc, char** argv) {
  ServerBenchFlags flags;
  const BenchOptions opts = BenchOptions::Parse(
      argc, argv, /*default_scale=*/0.02, /*default_queries=*/50,
      [&flags](const char* arg) {
        if (std::strncmp(arg, "--clients=", 10) == 0) {
          flags.clients = static_cast<size_t>(std::atoll(arg + 10));
          return true;
        }
        if (std::strncmp(arg, "--window-us=", 12) == 0) {
          flags.window_us = static_cast<uint32_t>(std::atoll(arg + 12));
          return true;
        }
        if (std::strncmp(arg, "--updates=", 10) == 0) {
          flags.updates = static_cast<size_t>(std::atoll(arg + 10));
          return true;
        }
        if (std::strcmp(arg, "--mix=all") == 0) {
          flags.mixed = true;
          return true;
        }
        if (std::strcmp(arg, "--mix=reach") == 0) {
          flags.mixed = false;
          return true;
        }
        if (std::strcmp(arg, "--boundary-index") == 0) {
          flags.boundary_index = true;
          return true;
        }
        if (std::strncmp(arg, "--cache=", 8) == 0) {
          flags.cache = std::strcmp(arg + 8, "off") != 0;
          return true;
        }
        if (std::strncmp(arg, "--cache-entries=", 16) == 0) {
          flags.cache_entries = static_cast<size_t>(std::atoll(arg + 16));
          return true;
        }
        if (std::strncmp(arg, "--hot=", 6) == 0) {
          flags.hot = static_cast<size_t>(std::atoll(arg + 6));
          return true;
        }
        if (std::strncmp(arg, "--queue-budget=", 15) == 0) {
          flags.queue_budget = static_cast<size_t>(std::atoll(arg + 15));
          return true;
        }
        if (std::strncmp(arg, "--tenant-quota=", 15) == 0) {
          flags.tenant_quota = static_cast<size_t>(std::atoll(arg + 15));
          return true;
        }
        if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
          flags.metrics_json = arg + 15;
          return true;
        }
        if (std::strcmp(arg, "--transport=sim") == 0) {
          flags.transport = TransportBackend::kSim;
          return true;
        }
        if (std::strcmp(arg, "--transport=socket") == 0) {
          flags.transport = TransportBackend::kSocket;
          return true;
        }
        if (std::strcmp(arg, "--chaos") == 0) {
          flags.chaos = true;
          return true;
        }
        return false;
      });
  const char* transport_name = TransportName(flags.transport);

  Rng rng(opts.seed);
  // The shared regex pool both configurations draw from (identical
  // workloads either way; with --boundary-index the repeats turn into
  // signature-cache hits). One label: the dataset generators label every
  // node 0, and matching automata are what make the rpq class heavy.
  std::vector<QueryAutomaton> automata;
  for (size_t i = 0; i < 4; ++i) {
    automata.push_back(MakeRandomAutomaton(3, 1, &rng));
  }
  const Graph g = MakeDataset(Dataset::kLiveJournal, opts.scale, &rng);
  const size_t k_sites = 8;
  const std::vector<SiteId> part =
      ChunkPartitioner().Partition(g, k_sites, &rng);
  std::printf(
      "QueryServer closed loop: %zu clients x %zu queries (%s), %zu sites, "
      "%zu nodes, %zu edges, %zu updates, reach path: %s, transport: %s\n",
      flags.clients, opts.queries, flags.mixed ? "mixed" : "reach-only",
      k_sites, g.NumNodes(), g.NumEdges(), flags.updates,
      flags.boundary_index ? "boundary-index" : "bes", transport_name);

  AnswerCacheOptions headline_cache;
  headline_cache.enabled = flags.cache;
  headline_cache.max_entries = flags.cache_entries;

  // Per-query baseline: no window, batches of one.
  BatchPolicy per_query;
  per_query.max_batch = 1;
  per_query.max_window_us = 0;
  per_query.adaptive = false;
  const ConfigResult single = RunConfig(g, part, k_sites, opts, flags,
                                        per_query, automata, headline_cache);

  // Adaptive coalescing window.
  BatchPolicy adaptive;
  adaptive.max_batch = 64;
  adaptive.max_window_us = flags.window_us;
  adaptive.adaptive = true;
  const ConfigResult batched = RunConfig(g, part, k_sites, opts, flags,
                                         adaptive, automata, headline_cache);

  PrintHeader(
      "Serving throughput: per-query vs adaptive batching",
      {"config", "wall", "model-q/s", "model-ms/q", "avg-batch", "batches"});
  char qps[32], batch[32], batches[32];
  std::snprintf(qps, sizeof(qps), "%.1f", single.modeled_qps);
  std::snprintf(batch, sizeof(batch), "%.2f", single.avg_batch);
  std::snprintf(batches, sizeof(batches), "%zu", single.batches);
  PrintRow({"per-query", FormatMs(single.wall_ms), qps,
            FormatMs(single.avg_modeled_ms), batch, batches});
  std::snprintf(qps, sizeof(qps), "%.1f", batched.modeled_qps);
  std::snprintf(batch, sizeof(batch), "%.2f", batched.avg_batch);
  std::snprintf(batches, sizeof(batches), "%zu", batched.batches);
  PrintRow({"adaptive", FormatMs(batched.wall_ms), qps,
            FormatMs(batched.avg_modeled_ms), batch, batches});

  PrintHeader("Modeled dispatcher occupancy by class (the makespan is the max)",
              {"config", "reach", "dist", "rpq"});
  PrintRow({"per-query", FormatMs(single.modeled_by_class[0]),
            FormatMs(single.modeled_by_class[1]),
            FormatMs(single.modeled_by_class[2])});
  PrintRow({"adaptive", FormatMs(batched.modeled_by_class[0]),
            FormatMs(batched.modeled_by_class[1]),
            FormatMs(batched.modeled_by_class[2])});

  // Wall-clock serving next to the modeled numbers: with --transport=socket
  // these are real multi-process round trips (frame encode, kernel sockets,
  // worker decode+compute), not the NetworkModel's accounting.
  PrintHeader("Wall-clock serving (transport=" + std::string(transport_name) +
                  ")",
              {"config", "wall-q/s", "p50", "p90", "p99"});
  std::snprintf(qps, sizeof(qps), "%.1f", single.wall_qps);
  PrintRow({"per-query", qps, FormatMs(single.wall_p50_ms),
            FormatMs(single.wall_p90_ms), FormatMs(single.wall_p99_ms)});
  std::snprintf(qps, sizeof(qps), "%.1f", batched.wall_qps);
  PrintRow({"adaptive", qps, FormatMs(batched.wall_p50_ms),
            FormatMs(batched.wall_p90_ms), FormatMs(batched.wall_p99_ms)});

  std::printf(
      "\nExpected shape: adaptive coalesces each class's concurrent arrivals "
      "into one round, so throughput rises and the modeled per-query cost "
      "falls toward (round cost)/(batch size); per-query pays 2 latencies "
      "per query no matter the load.\n");

  // Answer-cache series: the same adaptive configuration over a repeated
  // mix (a pool of --hot distinct queries), cache off vs on. Hits skip the
  // dispatcher entirely, so the modeled makespan shrinks to the misses'
  // evaluation and q/s rises with the hit rate.
  std::vector<Query> hot_pool;
  {
    Rng pool_rng(opts.seed + 7);
    const size_t pool_size = std::max<size_t>(flags.hot, 1);
    hot_pool.reserve(pool_size);
    for (size_t i = 0; i < pool_size; ++i) {
      hot_pool.push_back(
          MakeWorkloadQuery(g.NumNodes(), automata, flags.mixed, &pool_rng));
    }
  }
  AnswerCacheOptions cache_off, cache_on;
  cache_on.enabled = true;
  cache_on.max_entries = flags.cache_entries;
  const ConfigResult repeat_off = RunConfig(
      g, part, k_sites, opts, flags, adaptive, automata, cache_off,
      AdmissionOptions{}, &hot_pool);
  const ConfigResult repeat_on = RunConfig(
      g, part, k_sites, opts, flags, adaptive, automata, cache_on,
      AdmissionOptions{}, &hot_pool);

  PrintHeader("Answer cache on the repeated mix (hot pool of " +
                  std::to_string(hot_pool.size()) + " queries)",
              {"config", "model-q/s", "hit-rate", "batches"});
  char hit[32];
  std::snprintf(qps, sizeof(qps), "%.1f", repeat_off.modeled_qps);
  std::snprintf(hit, sizeof(hit), "%.2f", repeat_off.hit_rate);
  std::snprintf(batches, sizeof(batches), "%zu", repeat_off.batches);
  PrintRow({"cache-off", qps, hit, batches});
  std::snprintf(qps, sizeof(qps), "%.1f", repeat_on.modeled_qps);
  std::snprintf(hit, sizeof(hit), "%.2f", repeat_on.hit_rate);
  std::snprintf(batches, sizeof(batches), "%zu", repeat_on.batches);
  PrintRow({"cache-on", qps, hit, batches});

  // Overload series: queue budgets far below the offered load. The server
  // must shed the excess as rejections (bounded queues) while still
  // answering the admitted share — the backpressure contract.
  AdmissionOptions overload;
  overload.max_queue = flags.queue_budget;
  overload.tenant_quota = flags.tenant_quota;
  BatchPolicy overload_policy = adaptive;
  // A fixed (non-adaptive) window keeps admitted queries queued for the
  // full window, so the entry budget actually binds under the closed loop.
  overload_policy.adaptive = false;
  const ConfigResult overloaded =
      RunConfig(g, part, k_sites, opts, flags, overload_policy, automata,
                cache_off, overload);
  char rej[32];
  PrintHeader("Overload with queue budget " +
                  std::to_string(flags.queue_budget) +
                  " (rejections instead of queue growth)",
              {"config", "model-q/s", "reject-rate", "batches"});
  std::snprintf(qps, sizeof(qps), "%.1f", overloaded.modeled_qps);
  std::snprintf(rej, sizeof(rej), "%.2f", overloaded.rejection_rate);
  std::snprintf(batches, sizeof(batches), "%zu", overloaded.batches);
  PrintRow({"overloaded", qps, rej, batches});

  // Chaos series (--chaos): the adaptive configuration under a seeded
  // FaultPlan that SIGKILLs every worker at least once mid-serving plus
  // random {kill, hang, drop-frame, corrupt-crc, delay} draws. The
  // contract: every batch completes (zero transport rejections), recovered
  // via in-round retry, background respawn, or local degradation.
  ConfigResult chaotic;
  if (flags.chaos) {
    FaultPlan plan;
    plan.enabled = true;
    plan.seed = opts.seed;
    plan.rate = 0.05;
    plan.first_round = 2;
    plan.kill_each_site = true;
    chaotic = RunConfig(g, part, k_sites, opts, flags, adaptive, automata,
                        headline_cache, AdmissionOptions{}, nullptr, &plan);
    char rejected[32], respawns[32], retries[32], degraded[32];
    PrintHeader("Chaos series (seeded faults; every worker killed at least "
                "once)",
                {"config", "wall-q/s", "rejected", "respawns", "retries",
                 "degraded"});
    std::snprintf(qps, sizeof(qps), "%.1f", chaotic.wall_qps);
    std::snprintf(rejected, sizeof(rejected), "%.0f",
                  chaotic.transport_rejected);
    std::snprintf(respawns, sizeof(respawns), "%.0f",
                  chaotic.transport_respawns);
    std::snprintf(retries, sizeof(retries), "%.0f", chaotic.transport_retries);
    std::snprintf(degraded, sizeof(degraded), "%.0f",
                  chaotic.transport_degraded);
    PrintRow({"chaos", qps, rejected, respawns, retries, degraded});
    if (chaotic.transport_rejected > 0) {
      std::fprintf(stderr,
                   "chaos: %d batch(es) rejected with kTransportError — "
                   "recovery failed\n",
                   static_cast<int>(chaotic.transport_rejected));
      return 1;
    }
  }

  if (!flags.metrics_json.empty()) {
    std::FILE* f = std::fopen(flags.metrics_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write --metrics-json=%s\n",
                   flags.metrics_json.c_str());
      return 1;
    }
    std::fputs(overloaded.metrics_json.c_str(), f);
    std::fclose(f);
    std::printf("\nwrote metrics snapshot (overload run) to %s\n",
                flags.metrics_json.c_str());
  }

  std::string bench_name = "bench_server";
  if (flags.boundary_index) bench_name += "+boundary-index";
  if (flags.transport != TransportBackend::kSim) {
    bench_name += std::string("+") + transport_name;
  }
  WriteBenchJson(opts.json_path, bench_name,
                 {{"clients", static_cast<double>(flags.clients)},
                  {"queries_per_client", static_cast<double>(opts.queries)},
                  {"seed", static_cast<double>(opts.seed)},
                  {"boundary_index", flags.boundary_index ? 1.0 : 0.0},
                  {"per_query_modeled_qps", single.modeled_qps},
                  {"per_query_modeled_ms", single.avg_modeled_ms},
                  {"adaptive_modeled_qps", batched.modeled_qps},
                  {"adaptive_modeled_ms", batched.avg_modeled_ms},
                  {"adaptive_avg_batch", batched.avg_batch},
                  // Per-class dispatcher occupancy (dist/rpq are 0 under
                  // --mix=reach): the reach, dist and rpq series of the
                  // perf artifact, index off/on. The reach series is where
                  // the coalesced 64-lane words land under --boundary-index.
                  {"per_query_reach_modeled_ms", single.modeled_by_class[0]},
                  {"adaptive_reach_modeled_ms", batched.modeled_by_class[0]},
                  {"per_query_dist_modeled_ms", single.modeled_by_class[1]},
                  {"adaptive_dist_modeled_ms", batched.modeled_by_class[1]},
                  {"per_query_rpq_modeled_ms", single.modeled_by_class[2]},
                  {"adaptive_rpq_modeled_ms", batched.modeled_by_class[2]},
                  // Serving-hardening series: the repeated-mix cache
                  // comparison and the bounded-queue overload run.
                  {"hot_pool", static_cast<double>(hot_pool.size())},
                  {"cache_off_modeled_qps", repeat_off.modeled_qps},
                  {"cache_on_modeled_qps", repeat_on.modeled_qps},
                  {"cache_hit_rate", repeat_on.hit_rate},
                  {"queue_budget", static_cast<double>(flags.queue_budget)},
                  {"tenant_quota", static_cast<double>(flags.tenant_quota)},
                  {"overload_rejection_rate", overloaded.rejection_rate},
                  // Wall-clock series (adaptive run) for the chosen
                  // transport: real q/s and client-observed latency
                  // percentiles around Submit().get().
                  {"transport",
                   static_cast<double>(static_cast<int>(flags.transport))},
                  {"per_query_wall_qps", single.wall_qps},
                  {"wall_qps", batched.wall_qps},
                  {"wall_p50_ms", batched.wall_p50_ms},
                  {"wall_p90_ms", batched.wall_p90_ms},
                  {"wall_p99_ms", batched.wall_p99_ms},
                  // Chaos series (all zero when --chaos is off): recovery
                  // counters and the zero-rejection contract.
                  {"chaos", flags.chaos ? 1.0 : 0.0},
                  {"chaos_wall_qps", chaotic.wall_qps},
                  {"chaos_transport_rejected", chaotic.transport_rejected},
                  {"chaos_transport_retries", chaotic.transport_retries},
                  {"chaos_transport_respawns", chaotic.transport_respawns},
                  {"chaos_transport_degraded", chaotic.transport_degraded}});
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pereach

int main(int argc, char** argv) { return pereach::bench::Run(argc, argv); }
