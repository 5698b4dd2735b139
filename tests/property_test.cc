// Seeded cross-class property fuzzer: random query mixes driven through
// EVERY {reach_path, dist_path, rpq_path} x partitioner x EquationForm
// combination against the centralized oracle, across interleaved update
// epochs — the whole differential matrix the per-subsystem suites sample,
// in one place. Every assertion message carries the seed and the matrix
// cell, so a failing combination reproduces straight from the log.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/incremental.h"
#include "src/engine/partial_eval_engine.h"
#include "src/graph/generators.h"
#include "src/net/cluster.h"
#include "src/server/query_server.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::AllPartitioners;
using testing_util::DiffContext;
using testing_util::EdgeWorld;
using testing_util::kAllEquationForms;
using testing_util::OracleDistance;
using testing_util::OracleReachable;
using testing_util::RandomMixedQuery;

struct PathCombo {
  ReachAnswerPath reach;
  DistAnswerPath dist;
  RpqAnswerPath rpq;
  std::string name;
};

/// The full 2x2x2 indexed-path cube; combo 0 (all-BES) is the reference.
std::vector<PathCombo> AllPathCombos() {
  std::vector<PathCombo> combos;
  for (const ReachAnswerPath reach :
       {ReachAnswerPath::kBes, ReachAnswerPath::kBoundaryIndex}) {
    for (const DistAnswerPath dist :
         {DistAnswerPath::kBes, DistAnswerPath::kBoundaryIndex}) {
      for (const RpqAnswerPath rpq :
           {RpqAnswerPath::kBes, RpqAnswerPath::kBoundaryIndex}) {
        const auto tag = [](bool indexed) {
          return indexed ? "index" : "bes";
        };
        combos.push_back(
            {reach, dist, rpq,
             std::string("reach=") +
                 tag(reach == ReachAnswerPath::kBoundaryIndex) +
                 "/dist=" + tag(dist == DistAnswerPath::kBoundaryIndex) +
                 "/rpq=" + tag(rpq == RpqAnswerPath::kBoundaryIndex)});
      }
    }
  }
  return combos;
}

TEST(CrossClassPropertyTest, AllPathCombosMatchOracleAcrossMatrix) {
  constexpr size_t kSites = 4, kEpochs = 3, kQueriesPerEpoch = 24;
  constexpr size_t kNumLabels = 3;
  constexpr uint64_t kSeed = 987654321;
  Rng rng(kSeed);
  const std::vector<PathCombo> combos = AllPathCombos();

  for (const auto& partitioner : AllPartitioners()) {
    for (const EquationForm form : kAllEquationForms) {
      const size_t n = 50 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 3 * n, kNumLabels, &rng);
      const std::vector<SiteId> part = partitioner->Partition(g, kSites, &rng);
      IncrementalReachIndex index(g, part, kSites);
      EdgeWorld world = EdgeWorld::FromGraph(g);

      Cluster cluster(&index.fragmentation(), NetworkModel{});
      // One engine per {reach_path, dist_path, rpq_path} combination, all
      // fed the same batches; the all-BES combination doubles as the
      // reference the indexed paths must match bit-for-bit (distance values
      // included). A small rpq LRU cap keeps evictions in the fuzzed space.
      std::vector<std::unique_ptr<PartialEvalEngine>> engines;
      std::vector<std::string> engine_names;
      for (const PathCombo& combo : combos) {
        PartialEvalOptions options;
        options.form = form;
        options.reach_path = combo.reach;
        options.dist_path = combo.dist;
        options.rpq_path = combo.rpq;
        options.rpq_cache_entries = 4;
        engines.push_back(
            std::make_unique<PartialEvalEngine>(&cluster, options));
        engine_names.push_back(combo.name);
      }
      index.SetUpdateListener([&engines](SiteId site) {
        for (auto& engine : engines) engine->InvalidateFragment(site);
      });

      for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const Graph oracle = world.Build();
        std::vector<Query> batch;
        batch.reserve(kQueriesPerEpoch);
        for (size_t q = 0; q < kQueriesPerEpoch; ++q) {
          batch.push_back(RandomMixedQuery(n, kNumLabels, &rng));
        }
        // s == t members exercise the trivial coordinator path (reach/dist)
        // and the cycle semantics (rpq) everywhere.
        batch.push_back(Query::Reach(0, 0));
        batch.push_back(Query::Dist(1, 1, 0));
        batch.push_back(Query::Rpq(2, 2, QueryAutomaton::WildcardStar()));

        std::vector<BatchAnswer> results;
        results.reserve(engines.size());
        for (auto& engine : engines) {
          results.push_back(engine->EvaluateBatch(batch));
        }
        const BatchAnswer& reference = results[0];  // all-BES

        for (size_t q = 0; q < batch.size(); ++q) {
          const bool expected = OracleReachable(oracle, batch[q]);
          for (size_t e = 0; e < engines.size(); ++e) {
            ASSERT_EQ(results[e].answers[q].reachable, expected)
                << engine_names[e] << " vs oracle: "
                << DiffContext(kSeed, partitioner->name(), form, epoch,
                               batch[q]);
            if (batch[q].kind != QueryKind::kDist) continue;
            // Dist answers must be bit-identical across paths (above-bound
            // values included), and equal to the true distance when the
            // bound admits it.
            ASSERT_EQ(results[e].answers[q].distance,
                      reference.answers[q].distance)
                << engine_names[e] << " vs reference: "
                << DiffContext(kSeed, partitioner->name(), form, epoch,
                               batch[q]);
            if (expected) {
              ASSERT_EQ(
                  results[e].answers[q].distance,
                  OracleDistance(oracle, batch[q].source, batch[q].target))
                  << engine_names[e] << " vs oracle distance: "
                  << DiffContext(kSeed, partitioner->name(), form, epoch,
                                 batch[q]);
            }
          }
        }

        // Interleave an update epoch through the incremental index; the
        // listener invalidates every engine (contexts + all three boundary
        // indexes), so the next round's refresh must re-converge them all.
        index.AddEdges(world.AddRandomEdges(3, &rng));
      }
      index.SetUpdateListener(nullptr);

      // The indexed paths actually ran through their standing structures
      // (the last combo is all-indexed).
      PartialEvalEngine& all_indexed = *engines.back();
      const BoundaryReachIndex* reach_idx = all_indexed.boundary_index();
      const BoundaryDistIndex* dist_idx = all_indexed.boundary_dist_index();
      const BoundaryRpqIndex* rpq_idx = all_indexed.boundary_rpq_index();
      ASSERT_NE(reach_idx, nullptr)
          << "seed=" << kSeed << " " << partitioner->name();
      ASSERT_NE(dist_idx, nullptr)
          << "seed=" << kSeed << " " << partitioner->name();
      ASSERT_NE(rpq_idx, nullptr)
          << "seed=" << kSeed << " " << partitioner->name();
      EXPECT_GT(reach_idx->label_hits() + reach_idx->dfs_fallbacks(), 0u);
      EXPECT_GT(dist_idx->search_count(), 0u);
      EXPECT_GT(rpq_idx->num_entries(), 0u);
      EXPECT_LE(dist_idx->rebuild_count(), kEpochs);
      // The reach questions were answered in bit-parallel words.
      EXPECT_GT(reach_idx->batch_words(), 0u);
    }
  }
}

// Transport differential: the socket backend (spawned worker processes,
// length-prefixed frames, CRC-gated decode) must serve answers AND modeled
// books bit-identical to the simulated seed, across the answer-path cube and
// across update epochs (each commit re-ships fragments via SyncFragments).
// This is the proof that serving over real sockets changes wall-clock only.
// One socket-vs-sim differential world: same graph, same partitioner, the
// sim and socket backends must agree bit-for-bit on answers AND on the
// modeled books across the path extremes and update epochs. With a
// `fault_plan`, the socket backend additionally absorbs seeded
// {kill, hang, drop, corrupt, delay} faults via in-round failover — the
// answers and books must STILL be bit-identical to the fault-free sim.
void SocketVsSimDifferential(const Partitioner& partitioner, uint64_t seed,
                             const FaultPlan* fault_plan = nullptr) {
  constexpr size_t kSites = 3, kEpochs = 3, kQueriesPerEpoch = 16;
  constexpr size_t kNumLabels = 3;
  const uint64_t kSeed = seed;
  Rng rng(kSeed);
  const size_t n = 40 + rng.Uniform(20);
  const Graph g = ErdosRenyi(n, 3 * n, kNumLabels, &rng);
  const std::vector<SiteId> part = partitioner.Partition(g, kSites, &rng);
  IncrementalReachIndex index(g, part, kSites);
  EdgeWorld world = EdgeWorld::FromGraph(g);

  TransportOptions socket_options;
  socket_options.backend = TransportBackend::kSocket;
  if (fault_plan != nullptr) {
    socket_options.fault_plan = *fault_plan;
    socket_options.read_timeout_ms = 2000;
    socket_options.round_retries = 2;
    socket_options.breaker_threshold = 2;
    socket_options.breaker_open_ms = 50;
  }
  Cluster sim_cluster(&index.fragmentation(), NetworkModel{});
  Cluster socket_cluster(&index.fragmentation(), NetworkModel{},
                         /*num_threads=*/0, socket_options);

  // The two extreme path combinations (all-BES and all-indexed) on each
  // backend: the BES pair covers the batched localEval wire shapes, the
  // indexed pair covers the rows-refresh and endpoint-sweep shapes.
  struct EnginePair {
    std::unique_ptr<PartialEvalEngine> sim;
    std::unique_ptr<PartialEvalEngine> socket;
    std::string name;
  };
  std::vector<EnginePair> pairs;
  for (const bool indexed : {false, true}) {
    PartialEvalOptions options;
    options.reach_path =
        indexed ? ReachAnswerPath::kBoundaryIndex : ReachAnswerPath::kBes;
    options.dist_path =
        indexed ? DistAnswerPath::kBoundaryIndex : DistAnswerPath::kBes;
    options.rpq_path =
        indexed ? RpqAnswerPath::kBoundaryIndex : RpqAnswerPath::kBes;
    options.rpq_cache_entries = 4;
    EnginePair pair;
    pair.sim = std::make_unique<PartialEvalEngine>(&sim_cluster, options);
    pair.socket =
        std::make_unique<PartialEvalEngine>(&socket_cluster, options);
    pair.name = indexed ? "all-index" : "all-bes";
    pairs.push_back(std::move(pair));
  }
  index.SetUpdateListener([&pairs](SiteId site) {
    for (EnginePair& pair : pairs) {
      pair.sim->InvalidateFragment(site);
      pair.socket->InvalidateFragment(site);
    }
  });

  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    std::vector<Query> batch;
    batch.reserve(kQueriesPerEpoch + 1);
    for (size_t q = 0; q < kQueriesPerEpoch; ++q) {
      batch.push_back(RandomMixedQuery(n, kNumLabels, &rng));
    }
    batch.push_back(Query::Rpq(2, 2, QueryAutomaton::WildcardStar()));

    for (EnginePair& pair : pairs) {
      const BatchAnswer expect = pair.sim->EvaluateBatch(batch);
      const BatchAnswer got = pair.socket->EvaluateBatch(batch);
      ASSERT_TRUE(expect.status.ok());
      ASSERT_TRUE(got.status.ok())
          << pair.name << " epoch=" << epoch << ": " << got.status.ToString();
      for (size_t q = 0; q < batch.size(); ++q) {
        ASSERT_EQ(got.answers[q].reachable, expect.answers[q].reachable)
            << pair.name << " vs sim: "
            << DiffContext(kSeed, partitioner.name(), EquationForm::kAuto,
                           epoch, batch[q]);
        ASSERT_EQ(got.answers[q].distance, expect.answers[q].distance)
            << pair.name << " vs sim: "
            << DiffContext(kSeed, partitioner.name(), EquationForm::kAuto,
                           epoch, batch[q]);
      }
      // Identical modeled books: payload-only accounting makes the model
      // transport-invariant.
      EXPECT_EQ(got.metrics.rounds, expect.metrics.rounds) << pair.name;
      EXPECT_EQ(got.metrics.messages, expect.metrics.messages) << pair.name;
      EXPECT_EQ(got.metrics.traffic_bytes, expect.metrics.traffic_bytes)
          << pair.name;
    }

    // Commit an update epoch and re-ship the rebuilt fragments to the
    // workers before the next round (what QueryServer::AddEdges does under
    // its writer gate).
    index.AddEdges(world.AddRandomEdges(3, &rng));
    ASSERT_TRUE(socket_cluster.SyncFragments().ok());
  }
  index.SetUpdateListener(nullptr);

  if (fault_plan != nullptr) {
    // The plan actually injected: recovery work must be visible in the
    // health counters (kill_each_site alone guarantees kSites respawns or
    // degraded rounds), yet no batch above was allowed to fail.
    const TransportHealth health = socket_cluster.transport()->Health();
    EXPECT_GT(health.round_retries + health.degraded_site_rounds, 0u)
        << "seed=" << kSeed << " " << partitioner.name();
  }
}

TEST(CrossClassPropertyTest, SocketBackendMatchesSimAcrossEpochsAndPaths) {
  uint64_t seed = 1357911;
  for (const auto& partitioner : AllPartitioners()) {
    SocketVsSimDifferential(*partitioner, seed++);
    if (HasFatalFailure()) return;
  }
}

// Chaos differential: the same socket-vs-sim matrix, but the socket backend
// runs under a seeded FaultPlan that SIGKILLs every worker at least once
// (kill_each_site) and sprinkles {kill, hang, drop-frame, corrupt-crc,
// delay} faults at rate 0.2. In-round failover + local degradation must
// absorb every fault: answers and modeled books stay bit-identical to the
// fault-free sim across partitioners and update epochs.
TEST(CrossClassPropertyTest, ChaosSocketBackendMatchesSimUnderFaultPlan) {
  uint64_t seed = 246813579;
  for (const auto& partitioner : AllPartitioners()) {
    FaultPlan plan;
    plan.enabled = true;
    plan.seed = seed;
    plan.rate = 0.2;
    plan.first_round = 0;
    plan.kill_each_site = true;
    SocketVsSimDifferential(*partitioner, seed++, &plan);
    if (HasFatalFailure()) return;
  }
}

// Serving-layer variant of the differential: a cached, admission-enabled
// QueryServer against an uncached twin (each over its own index built from
// the same graph) and the centralized oracle, across update epochs. The
// query pool repeats heavily so the cache actually serves hits, and every
// accepted answer — hit or evaluated — must be bit-identical between the
// servers and correct against the oracle at the current epoch (DESIGN.md
// §11.1: the canonical key + epoch pin make cached serving answer-preserving).
TEST(CrossClassPropertyTest, CachedServingMatchesUncachedAcrossEpochs) {
  constexpr size_t kSites = 4, kEpochs = 4, kRounds = 3, kPoolSize = 12;
  constexpr size_t kNumLabels = 3;
  constexpr uint64_t kSeed = 24681357;
  Rng rng(kSeed);
  const size_t n = 50 + rng.Uniform(30);
  const Graph g = ErdosRenyi(n, 3 * n, kNumLabels, &rng);
  const std::vector<SiteId> part = testing_util::RandomPartition(n, kSites,
                                                                 &rng);
  IncrementalReachIndex cached_index(g, part, kSites);
  IncrementalReachIndex plain_index(g, part, kSites);
  EdgeWorld world = EdgeWorld::FromGraph(g);

  ServerOptions cached_options;
  cached_options.cache.enabled = true;
  cached_options.cache.max_entries = 64;
  // Admission budgets generous enough that this single-threaded closed
  // loop never trips them — enabled to prove the hardened configuration
  // serves the same answers, not to shed load here.
  cached_options.admission.max_queue = 256;
  cached_options.admission.tenant_quota = 256;
  QueryServer cached(&cached_index, cached_options);
  QueryServer plain(&plain_index);

  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    const Graph oracle = world.Build();
    // A fresh pool per epoch, replayed kRounds times: rounds 2+ are pure
    // hit traffic on the cached server.
    std::vector<Query> pool;
    pool.reserve(kPoolSize);
    for (size_t q = 0; q < kPoolSize; ++q) {
      pool.push_back(RandomMixedQuery(n, kNumLabels, &rng));
    }
    for (size_t round = 0; round < kRounds; ++round) {
      for (size_t q = 0; q < pool.size(); ++q) {
        const ServedAnswer from_cached = cached.Submit(pool[q]).get();
        const ServedAnswer from_plain = plain.Submit(pool[q]).get();
        const std::string context = DiffContext(
            kSeed, "random", EquationForm::kAuto, epoch, pool[q]);
        ASSERT_FALSE(from_cached.rejected) << context;
        ASSERT_FALSE(from_plain.rejected) << context;
        ASSERT_EQ(from_cached.answer.reachable, from_plain.answer.reachable)
            << "cached vs uncached: round=" << round << " " << context;
        ASSERT_EQ(from_cached.answer.distance, from_plain.answer.distance)
            << "cached vs uncached: round=" << round << " " << context;
        ASSERT_EQ(from_cached.answer.reachable,
                  OracleReachable(oracle, pool[q]))
            << "cached vs oracle: round=" << round << " " << context;
        ASSERT_EQ(from_cached.epoch, epoch) << context;
      }
    }
    // Same update batch through both servers, committing the same epoch;
    // the cached server's entries must all die with the old epoch.
    const std::vector<std::pair<NodeId, NodeId>> updates =
        world.AddRandomEdges(3, &rng);
    ASSERT_EQ(cached.AddEdges(updates), epoch + 1);
    ASSERT_EQ(plain.AddEdges(updates), epoch + 1);
  }
  // The repeated pool actually exercised the cache: rounds 2+ of each epoch
  // can only miss when a pool collision evicted an entry (cap 64 > pool).
  const AnswerCacheCounters counters = cached.cache_counters();
  EXPECT_GE(counters.hits, kEpochs * (kRounds - 1) * kPoolSize / 2);
  EXPECT_GE(counters.invalidated, kPoolSize);
}

}  // namespace
}  // namespace pereach
