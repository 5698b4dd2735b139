// Tests for the serving layer: BatchQueue coalescing semantics, the
// QueryServer's concurrent batch-vs-single differential against a
// centralized oracle (N client threads, randomized query mix), and the
// snapshot-consistency stress test with interleaved edge updates — the
// TSan target for metrics-window and FragmentContext invalidation races.

#include "src/server/query_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/graph/generators.h"
#include "src/regex/regex.h"
#include "src/server/batch_queue.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::EdgeWorld;
using testing_util::MakePaperExample;
using testing_util::OracleReachable;
using testing_util::PaperExample;
using testing_util::RandomMixedQuery;
using testing_util::RandomPartition;

// ---------------------------------------------------------------------------
// BatchQueue

PendingQuery MakePending(NodeId s, NodeId t) {
  PendingQuery p;
  p.query = Query::Reach(s, t);
  return p;
}

TEST(BatchQueueTest, SizeCapDispatchesWithoutWaitingTheWindow) {
  BatchQueue queue({.max_batch = 4, .max_window_us = 1'000'000,
                    .adaptive = false});
  for (NodeId i = 0; i < 4; ++i) {
    ASSERT_EQ(queue.Push(MakePending(i, i + 1)), PushOutcome::kAccepted);
  }
  StopWatch watch;
  const std::vector<PendingQuery> batch = queue.PopBatch();
  EXPECT_EQ(batch.size(), 4u);
  // The 1 s window must not have been slept: the size cap fired.
  EXPECT_LT(watch.ElapsedMs(), 500.0);
}

TEST(BatchQueueTest, ZeroWindowWithUnitBatchServesPerQuery) {
  BatchQueue queue({.max_batch = 1, .max_window_us = 0, .adaptive = false});
  ASSERT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.Push(MakePending(1, 2)), PushOutcome::kAccepted);
  EXPECT_EQ(queue.PopBatch().size(), 1u);
  EXPECT_EQ(queue.PopBatch().size(), 1u);
}

TEST(BatchQueueTest, ShutdownDrainsPendingThenReturnsEmpty) {
  BatchQueue queue({.max_batch = 16, .max_window_us = 1'000'000,
                    .adaptive = false});
  ASSERT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.Push(MakePending(1, 2)), PushOutcome::kAccepted);
  queue.Shutdown();
  StopWatch watch;
  EXPECT_EQ(queue.PopBatch().size(), 2u);  // no window wait in drain mode
  EXPECT_LT(watch.ElapsedMs(), 500.0);
  EXPECT_TRUE(queue.PopBatch().empty());
  EXPECT_TRUE(queue.PopBatch().empty());
}

TEST(BatchQueueTest, AdaptiveWindowShrinksUnderBurstArrivals) {
  BatchQueue queue({.max_batch = 64, .max_window_us = 100'000,
                    .adaptive = true});
  // A back-to-back burst: inter-arrival gaps of microseconds. The EWMA
  // window must fall well below the 100 ms cap.
  for (NodeId i = 0; i < 16; ++i) {
    ASSERT_EQ(queue.Push(MakePending(i, i + 1)), PushOutcome::kAccepted);
  }
  EXPECT_LT(queue.window_us(), 50'000.0);
  EXPECT_EQ(queue.PopBatch().size(), 16u);
}

TEST(BatchQueueTest, PushAfterShutdownIsRejectedNotFatal) {
  BatchQueue queue({.max_batch = 4, .max_window_us = 1000, .adaptive = false});
  ASSERT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
  queue.Shutdown();
  PendingQuery late = MakePending(1, 2);
  std::future<ServedAnswer> future = late.promise.get_future();
  EXPECT_EQ(queue.Push(std::move(late)), PushOutcome::kShutdown);
  // The promise survives a rejected Push: the caller can still resolve it.
  ServedAnswer answer;
  answer.rejected = true;
  late.promise.set_value(std::move(answer));
  EXPECT_TRUE(future.get().rejected);
  // The pre-shutdown query drains normally.
  EXPECT_EQ(queue.PopBatch().size(), 1u);
  EXPECT_TRUE(queue.PopBatch().empty());
}

// Regression: enqueue_time used to be stamped BEFORE taking the queue lock,
// so two racing producers could enqueue in the opposite order of their
// timestamps — and PopBatch's window deadline, computed from queue_.front(),
// could be measured from a non-oldest arrival. Stamped under the lock, queue
// order and timestamp order must agree.
TEST(BatchQueueTest, ConcurrentPushKeepsEnqueueTimesMonotonic) {
  BatchQueue queue(
      {.max_batch = 4096, .max_window_us = 1'000'000, .adaptive = false});
  constexpr size_t kThreads = 8, kPerThread = 200;
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kThreads; ++p) {
    producers.emplace_back([&queue] {
      for (size_t i = 0; i < kPerThread; ++i) {
        EXPECT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
      }
    });
  }
  for (std::thread& t : producers) t.join();
  const std::vector<PendingQuery> batch = queue.PopBatch();
  ASSERT_EQ(batch.size(), kThreads * kPerThread);
  for (size_t i = 1; i < batch.size(); ++i) {
    EXPECT_LE(batch[i - 1].enqueue_time, batch[i].enqueue_time)
        << "queue order disagrees with timestamp order at " << i;
  }
}

// Regression: max_batch == 0 made PopBatch return empty batches forever
// while queries sat queued (dispatchers read empty as shutdown; clients
// hang). The policy is clamped at construction instead.
TEST(BatchQueueTest, ZeroMaxBatchPolicyIsClampedToPerQuery) {
  BatchQueue queue({.max_batch = 0, .max_window_us = 0, .adaptive = false});
  EXPECT_EQ(queue.policy().max_batch, 1u);
  ASSERT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
  ASSERT_EQ(queue.Push(MakePending(1, 2)), PushOutcome::kAccepted);
  EXPECT_EQ(queue.PopBatch().size(), 1u);
  EXPECT_EQ(queue.PopBatch().size(), 1u);
}

TEST(BatchQueueTest, ZeroWindowStillCoalescesWhatIsAlreadyQueued) {
  // max_window_us == 0 must not wait, but everything already pending up to
  // max_batch still ships as one batch.
  BatchQueue queue({.max_batch = 16, .max_window_us = 0, .adaptive = true});
  for (NodeId i = 0; i < 5; ++i) {
    ASSERT_EQ(queue.Push(MakePending(i, i + 1)), PushOutcome::kAccepted);
  }
  StopWatch watch;
  EXPECT_EQ(queue.PopBatch().size(), 5u);
  EXPECT_LT(watch.ElapsedMs(), 500.0);
}

// ---------------------------------------------------------------------------
// QueryServer oracle harness (shared machinery from tests/test_util: the
// EdgeWorld mirror, OracleReachable, and the RandomMixedQuery stream).

TEST(QueryServerTest, SequentialMixedQueriesMatchOracle) {
  Rng rng(101);
  const size_t n = 60, k = 4, num_labels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, num_labels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  QueryServer server(&index);

  const Graph oracle = EdgeWorld::FromGraph(g).Build();
  for (int i = 0; i < 40; ++i) {
    Query q = RandomMixedQuery(n, num_labels, &rng);
    if (i == 7) q = Query::Reach(5, 5);  // trivial member
    const Query probe = q;
    const ServedAnswer served = server.Submit(std::move(q)).get();
    EXPECT_EQ(served.answer.reachable, OracleReachable(oracle, probe))
        << "i=" << i << " kind=" << static_cast<int>(probe.kind)
        << " s=" << probe.source << " t=" << probe.target;
    EXPECT_EQ(served.epoch, 0u);
    EXPECT_GE(served.batch_size, 1u);
  }
  EXPECT_EQ(server.stats().queries, 40u);
}

// The concurrent batch-vs-single differential: N client threads with a
// randomized query mix, updates applied between (quiesced) phases so every
// phase has a deterministic oracle. Catches both wrong answers under
// coalescing and stale FragmentContext reuse after invalidation.
TEST(QueryServerTest, ConcurrentClientsMatchOracleAcrossUpdatePhases) {
  Rng rng(202);
  const size_t n = 80, k = 4, num_labels = 3;
  const size_t kClients = 6, kQueriesPerClient = 15, kPhases = 3;
  const Graph g = ErdosRenyi(n, 3 * n, num_labels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  EdgeWorld world = EdgeWorld::FromGraph(g);

  ServerOptions options;
  options.policy.max_batch = 16;
  options.policy.max_window_us = 2000;
  QueryServer server(&index, options);

  for (size_t phase = 0; phase < kPhases; ++phase) {
    const Graph oracle = world.Build();
    std::vector<std::vector<std::pair<Query, ServedAnswer>>> results(kClients);
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng crng(1000 * phase + c);
        for (size_t i = 0; i < kQueriesPerClient; ++i) {
          Query q = RandomMixedQuery(n, num_labels, &crng);
          const Query probe = q;
          ServedAnswer served = server.Submit(std::move(q)).get();
          results[c].emplace_back(probe, std::move(served));
        }
      });
    }
    for (std::thread& t : clients) t.join();

    for (size_t c = 0; c < kClients; ++c) {
      for (const auto& [q, served] : results[c]) {
        ASSERT_EQ(served.answer.reachable, OracleReachable(oracle, q))
            << "phase=" << phase << " client=" << c
            << " kind=" << static_cast<int>(q.kind) << " s=" << q.source
            << " t=" << q.target;
        // No update ran during the phase: the snapshot is exactly `phase`
        // committed updates.
        ASSERT_EQ(served.epoch, phase);
      }
    }

    // One update batch between phases, through the server's writer path.
    std::vector<std::pair<NodeId, NodeId>> update;
    for (int e = 0; e < 2; ++e) {
      update.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                          static_cast<NodeId>(rng.Uniform(n)));
    }
    EXPECT_EQ(server.AddEdges(update), phase + 1);
    for (const auto& edge : update) world.edges.push_back(edge);
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, kPhases * kClients * kQueriesPerClient);
  EXPECT_EQ(stats.updates, kPhases);
  EXPECT_EQ(server.epoch(), kPhases);
}

TEST(QueryServerTest, BurstOfSubmissionsCoalescesIntoFewBatches) {
  Rng rng(303);
  const size_t n = 50, k = 3;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);

  ServerOptions options;
  options.policy.max_batch = 64;
  options.policy.max_window_us = 200'000;  // generous: absorb scheduler noise
  options.policy.adaptive = false;
  QueryServer server(&index, options);

  // Submit the whole burst before waiting on any future: the window is
  // counted from the first arrival, so the dispatcher collects the burst.
  std::vector<std::future<ServedAnswer>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.Submit(Query::Reach(
        static_cast<NodeId>(rng.Uniform(n)),
        static_cast<NodeId>(rng.Uniform(n)))));
  }
  size_t max_batch_seen = 0;
  for (auto& f : futures) {
    max_batch_seen = std::max(max_batch_seen, f.get().batch_size);
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, 32u);
  // All 32 are one class; with a 200 ms window they coalesce into very few
  // batches (loose bound: scheduler may split off a straggler or two).
  EXPECT_LE(stats.batches, 4u);
  EXPECT_GE(max_batch_seen, 8u);
  EXPECT_GT(stats.AvgBatch(), 1.0);
}

// Interleaved-update stress (the TSan job's main target). Updates only add
// edges, so every query class is monotone: an answer computed at ANY epoch
// between submission and completion must be true if it was true before all
// updates, and false if it is false after all of them.
TEST(QueryServerTest, InterleavedUpdatesKeepSnapshotsConsistent) {
  Rng rng(404);
  const size_t n = 80, k = 4, num_labels = 3;
  const size_t kClients = 6, kQueriesPerClient = 20, kUpdates = 6;
  const Graph g = ErdosRenyi(n, 3 * n, num_labels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  EdgeWorld world = EdgeWorld::FromGraph(g);
  const Graph before = world.Build();

  // Pre-plan the updates so the final oracle is known.
  std::vector<std::vector<std::pair<NodeId, NodeId>>> updates(kUpdates);
  for (auto& batch : updates) {
    for (int e = 0; e < 2; ++e) {
      batch.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                         static_cast<NodeId>(rng.Uniform(n)));
      world.edges.push_back(batch.back());
    }
  }
  const Graph after = world.Build();

  ServerOptions options;
  options.policy.max_batch = 16;
  options.policy.max_window_us = 1000;
  QueryServer server(&index, options);

  std::vector<std::vector<std::pair<Query, ServedAnswer>>> results(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(7000 + c);
      for (size_t i = 0; i < kQueriesPerClient; ++i) {
        Query q = RandomMixedQuery(n, num_labels, &crng);
        const Query probe = q;
        ServedAnswer served = server.Submit(std::move(q)).get();
        results[c].emplace_back(probe, std::move(served));
      }
    });
  }
  std::thread writer([&] {
    for (const auto& batch : updates) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      server.AddEdges(batch);
    }
  });
  for (std::thread& t : clients) t.join();
  writer.join();

  EXPECT_EQ(server.epoch(), kUpdates);
  for (size_t c = 0; c < kClients; ++c) {
    uint64_t last_epoch = 0;
    for (const auto& [q, served] : results[c]) {
      // Monotonicity of edge insertion bounds the answer from both sides.
      if (OracleReachable(before, q)) {
        EXPECT_TRUE(served.answer.reachable)
            << "client=" << c << " epoch=" << served.epoch
            << " kind=" << static_cast<int>(q.kind) << " s=" << q.source
            << " t=" << q.target;
      }
      if (!OracleReachable(after, q)) {
        EXPECT_FALSE(served.answer.reachable)
            << "client=" << c << " epoch=" << served.epoch
            << " kind=" << static_cast<int>(q.kind) << " s=" << q.source
            << " t=" << q.target;
      }
      // A closed-loop client's snapshots never move backwards.
      EXPECT_GE(served.epoch, last_epoch);
      EXPECT_LE(served.epoch, kUpdates);
      last_epoch = served.epoch;
    }
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, kClients * kQueriesPerClient);
  EXPECT_EQ(stats.updates, kUpdates);
}

// Drain blocks until every submitted query is answered.
TEST(QueryServerTest, DrainWaitsForInFlightQueries) {
  Rng rng(505);
  const size_t n = 40, k = 3;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  QueryServer server(&index);

  std::vector<std::future<ServedAnswer>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(server.Submit(Query::Reach(
        static_cast<NodeId>(rng.Uniform(n)),
        static_cast<NodeId>(rng.Uniform(n)))));
  }
  server.Drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
  }
}

// The boundary-index serving path: reach dispatchers resolve through the
// coordinator's boundary label under the read gate, so indexed answers must
// stay oracle-exact across update epochs and still report their snapshot.
TEST(QueryServerTest, BoundaryIndexServingMatchesOracleAcrossUpdatePhases) {
  Rng rng(808);
  const size_t n = 80, k = 4;
  const size_t kClients = 4, kQueriesPerClient = 20, kPhases = 3;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  EdgeWorld world = EdgeWorld::FromGraph(g);

  ServerOptions options;
  options.policy.max_batch = 16;
  options.policy.max_window_us = 2000;
  options.eval.reach_path = ReachAnswerPath::kBoundaryIndex;
  QueryServer server(&index, options);

  for (size_t phase = 0; phase < kPhases; ++phase) {
    const Graph oracle = world.Build();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng crng(3000 * phase + c);
        for (size_t i = 0; i < kQueriesPerClient; ++i) {
          const NodeId s = static_cast<NodeId>(crng.Uniform(n));
          const NodeId t = static_cast<NodeId>(crng.Uniform(n));
          const ServedAnswer served =
              server.Submit(Query::Reach(s, t)).get();
          EXPECT_EQ(served.answer.reachable, CentralizedReach(oracle, s, t))
              << "phase=" << phase << " s=" << s << " t=" << t;
          EXPECT_EQ(served.epoch, phase);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    std::vector<std::pair<NodeId, NodeId>> update;
    for (int e = 0; e < 2; ++e) {
      update.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                          static_cast<NodeId>(rng.Uniform(n)));
      world.edges.push_back(update.back());
    }
    EXPECT_EQ(server.AddEdges(update), phase + 1);
  }
  EXPECT_EQ(server.epoch(), kPhases);
}

// The weighted-boundary-index serving path: dist dispatchers resolve through
// the coordinator's standing min-plus graph under the read gate, so indexed
// distances must stay oracle-exact (and epoch-stamped) across update phases.
TEST(QueryServerTest, BoundaryDistServingMatchesOracleAcrossUpdatePhases) {
  Rng rng(909);
  const size_t n = 80, k = 4;
  const size_t kClients = 4, kQueriesPerClient = 20, kPhases = 3;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  EdgeWorld world = EdgeWorld::FromGraph(g);

  ServerOptions options;
  options.policy.max_batch = 16;
  options.policy.max_window_us = 2000;
  options.eval.dist_path = DistAnswerPath::kBoundaryIndex;
  QueryServer server(&index, options);

  for (size_t phase = 0; phase < kPhases; ++phase) {
    const Graph oracle = world.Build();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng crng(4000 * phase + c);
        for (size_t i = 0; i < kQueriesPerClient; ++i) {
          const NodeId s = static_cast<NodeId>(crng.Uniform(n));
          const NodeId t = static_cast<NodeId>(crng.Uniform(n));
          const uint32_t bound = 1 + static_cast<uint32_t>(crng.Uniform(8));
          const ServedAnswer served =
              server.Submit(Query::Dist(s, t, bound)).get();
          const uint32_t d = CentralizedDistance(oracle, s, t);
          const bool expected = d != kInfDistance && d <= bound;
          EXPECT_EQ(served.answer.reachable, expected)
              << "phase=" << phase << " s=" << s << " t=" << t
              << " bound=" << bound;
          if (expected) {
            EXPECT_EQ(served.answer.distance, d)
                << "phase=" << phase << " s=" << s << " t=" << t;
          }
          EXPECT_EQ(served.epoch, phase);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(server.AddEdges(world.AddRandomEdges(2, &rng)), phase + 1);
  }
  EXPECT_EQ(server.epoch(), kPhases);
}

// The rpq dispatcher serves through the signature-cached glued product
// graphs (ServerOptions::eval pickup) while a writer applies edge updates:
// answers must stay oracle-exact at every epoch, and repeated regexes must
// actually hit the standing entries rather than rebuild per batch.
TEST(QueryServerTest, BoundaryRpqServingMatchesOracleAcrossUpdatePhases) {
  Rng rng(808);
  const size_t n = 70, k = 4, kLabels = 3;
  const size_t kClients = 4, kQueriesPerClient = 15, kPhases = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  EdgeWorld world = EdgeWorld::FromGraph(g);

  // A small shared regex pool — the serving-realistic shape the signature
  // cache is for.
  std::vector<QueryAutomaton> pool;
  pool.push_back(QueryAutomaton::WildcardStar());
  for (int i = 0; i < 3; ++i) {
    pool.push_back(
        QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng)).value());
  }

  ServerOptions options;
  options.policy.max_batch = 16;
  options.policy.max_window_us = 2000;
  options.eval.rpq_path = RpqAnswerPath::kBoundaryIndex;
  QueryServer server(&index, options);

  for (size_t phase = 0; phase < kPhases; ++phase) {
    const Graph oracle = world.Build();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng crng(8000 * phase + c);
        for (size_t i = 0; i < kQueriesPerClient; ++i) {
          const NodeId s = static_cast<NodeId>(crng.Uniform(n));
          const NodeId t = static_cast<NodeId>(crng.Uniform(n));
          const QueryAutomaton& a = pool[crng.Uniform(pool.size())];
          const ServedAnswer served =
              server.Submit(Query::Rpq(s, t, a)).get();
          EXPECT_EQ(served.answer.reachable,
                    testing_util::OracleRegularReach(oracle, s, t, a))
              << "phase=" << phase << " s=" << s << " t=" << t;
          EXPECT_EQ(served.epoch, phase);
        }
      });
    }
    for (std::thread& t : clients) t.join();

    EXPECT_EQ(server.AddEdges(world.AddRandomEdges(2, &rng)), phase + 1);
  }
  EXPECT_EQ(server.epoch(), kPhases);
}

// Regression: an oversized regex (> 62 symbol occurrences) used to
// CHECK-abort the whole server process inside QueryAutomaton::FromRegex.
// Now Query::Rpq carries no automaton, Submit resolves the future as
// rejected, and the server keeps serving well-formed queries.
TEST(QueryServerTest, OversizedRegexSubmissionRejectedNotFatal) {
  Rng rng(707);
  const size_t n = 40, k = 3;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  const Graph oracle = EdgeWorld::FromGraph(g).Build();
  QueryServer server(&index);

  const Regex big = Regex::Random(80, 2, &rng);  // 80 + 2 states > 64
  const Query bad = Query::Rpq(0, 1, big);
  ASSERT_FALSE(bad.automaton.has_value());
  const ServedAnswer rejected = server.Submit(bad).get();
  EXPECT_TRUE(rejected.rejected);

  // The server is still alive and correct for everyone else.
  for (int q = 0; q < 10; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = static_cast<NodeId>(rng.Uniform(n));
    const ServedAnswer served = server.Submit(Query::Reach(s, t)).get();
    EXPECT_FALSE(served.rejected);
    EXPECT_EQ(served.answer.reachable, CentralizedReach(oracle, s, t));
  }
  server.Drain();
}

// A query naming a node the graph does not have used to CHECK-abort the
// indexed reach path (Fragmentation::site_of) and was answered false on the
// BES path. Submit now rejects it as malformed — every class, both paths —
// and the server keeps answering well-formed queries correctly.
TEST(QueryServerTest, OutOfRangeEndpointRejectedNotFatal) {
  const PaperExample ex = MakePaperExample();
  const Regex hr_star = Regex::Parse("HR*", ex.labels).value();
  const NodeId n = static_cast<NodeId>(ex.graph.NumNodes());
  constexpr NodeId kFar = 1000000;
  const std::vector<Query> bad = {Query::Reach(kFar, ex.mark),
                                  Query::Reach(n, n),
                                  Query::Dist(ex.ann, kFar, 8),
                                  Query::Rpq(kFar, ex.mark, hr_star),
                                  Query::Rpq(ex.ann, n, hr_star)};
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed paths" : "BES paths");
    IncrementalReachIndex index(ex.graph, ex.partition, 3);
    ServerOptions options;
    if (indexed) {
      options.eval.reach_path = ReachAnswerPath::kBoundaryIndex;
      options.eval.dist_path = DistAnswerPath::kBoundaryIndex;
      options.eval.rpq_path = RpqAnswerPath::kBoundaryIndex;
    }
    QueryServer server(&index, options);

    for (const Query& q : bad) {
      const ServedAnswer rejected = server.Submit(q).get();
      EXPECT_TRUE(rejected.rejected);
      EXPECT_EQ(rejected.reject_reason, RejectReason::kMalformed);
    }
    EXPECT_EQ(server.Metrics().counter(CounterId::kRejectedMalformed),
              bad.size());

    const std::vector<Query> good = {Query::Reach(ex.ann, ex.mark),
                                     Query::Dist(ex.ann, ex.mark, 6),
                                     Query::Dist(ex.ann, ex.mark, 5),
                                     Query::Rpq(ex.ann, ex.mark, hr_star),
                                     Query::Reach(ex.mark, ex.ann)};
    for (const Query& q : good) {
      const ServedAnswer served = server.Submit(q).get();
      ASSERT_FALSE(served.rejected);
      EXPECT_EQ(served.answer.reachable, OracleReachable(ex.graph, q));
    }
    server.Drain();
  }
}

// An update naming a node the graph does not have used to CHECK-abort the
// writer inside IncrementalReachIndex::AddEdges. The server now refuses the
// whole batch before it takes the writer gate: nothing is applied, the
// epoch stays, the refusal is counted, and the next valid update and the
// queries after it are served correctly — BES and indexed paths alike.
TEST(QueryServerTest, OutOfRangeUpdateRejectedNotFatal) {
  const PaperExample ex = MakePaperExample();
  const NodeId n = static_cast<NodeId>(ex.graph.NumNodes());
  for (const bool indexed : {false, true}) {
    SCOPED_TRACE(indexed ? "indexed paths" : "BES paths");
    IncrementalReachIndex index(ex.graph, ex.partition, 3);
    ServerOptions options;
    if (indexed) {
      options.eval.reach_path = ReachAnswerPath::kBoundaryIndex;
      options.eval.dist_path = DistAnswerPath::kBoundaryIndex;
      options.eval.rpq_path = RpqAnswerPath::kBoundaryIndex;
    }
    QueryServer server(&index, options);
    EXPECT_FALSE(server.Submit(Query::Reach(ex.ann, ex.tom)).get()
                     .answer.reachable);

    // The valid edge (Mark -> Tom) rides along and must not be applied.
    const std::vector<std::pair<NodeId, NodeId>> bad = {{ex.mark, ex.tom},
                                                        {1000000, 3}};
    EXPECT_EQ(server.AddEdges(bad), 0u);
    EXPECT_EQ(server.AddEdge(ex.mark, n), 0u);
    EXPECT_EQ(server.epoch(), 0u);
    EXPECT_EQ(index.epoch(), 0u);
    const MetricsSnapshot snap = server.Metrics();
    EXPECT_EQ(snap.counter(CounterId::kUpdatesRejected), 2u);
    EXPECT_EQ(snap.counter(CounterId::kUpdates), 0u);
    EXPECT_FALSE(server.Submit(Query::Reach(ex.ann, ex.tom)).get()
                     .answer.reachable);

    EXPECT_EQ(server.AddEdge(ex.mark, ex.tom), 1u);
    EXPECT_EQ(server.Metrics().counter(CounterId::kUpdatesRejected), 2u);
    EdgeWorld world = EdgeWorld::FromGraph(ex.graph);
    world.edges.emplace_back(ex.mark, ex.tom);
    const Graph updated = world.Build();
    for (const Query& q :
         {Query::Reach(ex.ann, ex.tom), Query::Reach(ex.tom, ex.ann),
          Query::Dist(ex.ann, ex.tom, 8), Query::Reach(ex.pat, ex.mark)}) {
      const ServedAnswer served = server.Submit(q).get();
      ASSERT_FALSE(served.rejected);
      EXPECT_EQ(served.epoch, 1u);
      EXPECT_EQ(served.answer.reachable, OracleReachable(updated, q));
    }
    server.Drain();
  }
}

// Regression for the Submit-vs-Stop race: client threads hammer Submit while
// the main thread stops the server. Before the fix, a Push that lost the
// race hit PEREACH_CHECK(!shutdown_) and aborted the whole process. Now
// every future must become ready — answered for admitted queries, rejected
// for the rest — and answered ones must be correct.
TEST(QueryServerTest, SubmitRacingStopResolvesEveryFutureGracefully) {
  Rng rng(606);
  const size_t n = 50, k = 3, kClients = 6;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  const Graph oracle = EdgeWorld::FromGraph(g).Build();

  QueryServer server(&index);
  std::atomic<bool> go{false};
  std::atomic<size_t> rejected_total{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(9000 + c);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      size_t rejected = 0;
      // Submit until the server turns us away (plus a few extra afterwards
      // to cover the post-stop path), checking every admitted answer.
      for (int i = 0; i < 100000 && rejected < 3; ++i) {
        const NodeId s = static_cast<NodeId>(crng.Uniform(n));
        const NodeId t = static_cast<NodeId>(crng.Uniform(n));
        const ServedAnswer served = server.Submit(Query::Reach(s, t)).get();
        if (served.rejected) {
          ++rejected;
        } else {
          EXPECT_EQ(served.answer.reachable, CentralizedReach(oracle, s, t));
        }
      }
      rejected_total.fetch_add(rejected, std::memory_order_relaxed);
    });
  }
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Stop();
  for (std::thread& t : clients) t.join();
  // Every client observed the stop as rejections, never a crash or a hang.
  EXPECT_GE(rejected_total.load(), kClients * 3);
  // Stop is idempotent, and Submit after Stop stays graceful.
  server.Stop();
  EXPECT_TRUE(server.Submit(Query::Reach(0, 1)).get().rejected);
}

// A max_batch == 0 policy used to hang every client (PopBatch returned
// empty batches forever with queries queued); the clamp turns it into the
// per-query baseline.
TEST(QueryServerTest, ZeroMaxBatchPolicyStillServes) {
  Rng rng(707);
  const size_t n = 40, k = 3;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  const Graph oracle = EdgeWorld::FromGraph(g).Build();

  ServerOptions options;
  options.policy.max_batch = 0;    // clamped to 1
  options.policy.max_window_us = 0;  // no coalescing wait
  QueryServer server(&index, options);
  for (int i = 0; i < 20; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = static_cast<NodeId>(rng.Uniform(n));
    const ServedAnswer served = server.Submit(Query::Reach(s, t)).get();
    EXPECT_FALSE(served.rejected);
    EXPECT_EQ(served.answer.reachable, CentralizedReach(oracle, s, t));
    EXPECT_EQ(served.batch_size, 1u);
  }
  EXPECT_EQ(server.stats().queries, 20u);
}

// ---------------------------------------------------------------------------
// Serving hardening: answer cache, admission control, tenant quotas, metrics
// (DESIGN.md §11; the operator-facing contract lives in docs/OPERATIONS.md).

TEST(BatchQueueTest, EntryBudgetRejectsBeyondMaxQueue) {
  AdmissionOptions admission;
  admission.max_queue = 2;
  BatchQueue queue({.max_batch = 64, .max_window_us = 1'000'000,
                    .adaptive = false},
                   admission);
  EXPECT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
  EXPECT_EQ(queue.Push(MakePending(1, 2)), PushOutcome::kAccepted);
  // The budget verdict is exact (decided under the queue lock): entry 3
  // rejects while exactly 2 are pending, and popping reopens admission.
  EXPECT_EQ(queue.Push(MakePending(2, 3)), PushOutcome::kQueueFull);
  EXPECT_EQ(queue.pending(), 2u);
  queue.Shutdown();
  EXPECT_EQ(queue.PopBatch().size(), 2u);
}

TEST(BatchQueueTest, AgeBudgetRejectsWhenOldestEntryIsStale) {
  AdmissionOptions admission;
  admission.max_queue_age_us = 1000;  // 1 ms
  BatchQueue queue({.max_batch = 64, .max_window_us = 1'000'000,
                    .adaptive = false},
                   admission);
  EXPECT_EQ(queue.Push(MakePending(0, 1)), PushOutcome::kAccepted);
  // No dispatcher pops: the oldest entry ages past the budget, so further
  // admissions must reject as stale rather than grow the backlog.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(queue.Push(MakePending(1, 2)), PushOutcome::kQueueStale);
  EXPECT_EQ(queue.pending(), 1u);
  queue.Shutdown();
  EXPECT_EQ(queue.PopBatch().size(), 1u);
}

TEST(QueryServerTest, CacheHitReturnsBitIdenticalAnswerAndEpoch) {
  Rng rng(1101);
  const size_t n = 60, k = 4, num_labels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, num_labels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);

  ServerOptions options;
  options.cache.enabled = true;
  QueryServer server(&index, options);

  // Mixed classes, each submitted twice: the second submission must hit and
  // return the bit-identical answer fields at the same epoch.
  std::vector<Query> probes;
  for (int i = 0; i < 8; ++i) {
    probes.push_back(RandomMixedQuery(n, num_labels, &rng));
  }
  std::vector<ServedAnswer> first;
  for (const Query& q : probes) first.push_back(server.Submit(q).get());
  for (size_t i = 0; i < probes.size(); ++i) {
    const ServedAnswer again = server.Submit(probes[i]).get();
    EXPECT_TRUE(again.cache_hit) << "probe " << i;
    EXPECT_FALSE(again.rejected);
    EXPECT_EQ(again.answer.reachable, first[i].answer.reachable) << i;
    EXPECT_EQ(again.answer.distance, first[i].answer.distance) << i;
    EXPECT_EQ(again.epoch, first[i].epoch) << i;
  }
  const AnswerCacheCounters cache = server.cache_counters();
  EXPECT_GE(cache.hits, probes.size());
  // Evaluated work is unchanged by hits: ServerStats counts only the first
  // round of submissions.
  EXPECT_EQ(server.stats().queries, probes.size());

  // An rpq phrased differently but language-equal shares the canonical
  // key, so it hits the entry its twin inserted.
  LabelDictionary dict;
  dict.Intern("a");
  const Regex plain = Regex::Parse("a", dict).value();
  const Regex doubled = Regex::Parse("a | a", dict).value();
  const ServedAnswer miss = server.Submit(Query::Rpq(3, 7, plain)).get();
  EXPECT_FALSE(miss.cache_hit);
  const ServedAnswer hit = server.Submit(Query::Rpq(3, 7, doubled)).get();
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.answer.reachable, miss.answer.reachable);
}

TEST(QueryServerTest, CacheInvalidatedOnUpdateCommit) {
  Rng rng(1202);
  const size_t n = 30, k = 3;
  // Two halves with no edges between them: q = (0 -> n-1) is false until
  // the writer links them, so a stale cache entry would be WRONG, not just
  // old — the strongest invalidation probe.
  std::vector<std::pair<NodeId, NodeId>> chain_edges;
  for (NodeId u = 0; u + 1 < n / 2; ++u) chain_edges.emplace_back(u, u + 1);
  for (NodeId u = n / 2; u + 1 < n; ++u) chain_edges.emplace_back(u, u + 1);
  const Graph g = testing_util::MakeGraph(n, chain_edges);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);

  ServerOptions options;
  options.cache.enabled = true;
  QueryServer server(&index, options);

  const Query probe = Query::Reach(0, static_cast<NodeId>(n - 1));
  const ServedAnswer before = server.Submit(probe).get();
  EXPECT_FALSE(before.answer.reachable);
  EXPECT_EQ(before.epoch, 0u);
  EXPECT_TRUE(server.Submit(probe).get().cache_hit);  // cached at epoch 0

  // The commit must invalidate: the resubmission re-evaluates at epoch 1
  // and sees the new edge.
  EXPECT_EQ(server.AddEdge(static_cast<NodeId>(n / 2 - 1),
                           static_cast<NodeId>(n / 2)),
            1u);
  const ServedAnswer after = server.Submit(probe).get();
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(after.answer.reachable);
  EXPECT_EQ(after.epoch, 1u);
  // And the fresh answer is cached under the new epoch.
  const ServedAnswer again = server.Submit(probe).get();
  EXPECT_TRUE(again.cache_hit);
  EXPECT_TRUE(again.answer.reachable);
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_GE(server.cache_counters().invalidated, 1u);
}

TEST(QueryServerTest, QueueBudgetRejectsInsteadOfQueueingUnboundedly) {
  Rng rng(1303);
  const size_t n = 50, k = 3;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);

  ServerOptions options;
  // A long fixed window holds the first batch in the queue while the burst
  // lands, so the entry budget is actually exercised.
  options.policy.max_batch = 64;
  options.policy.max_window_us = 200'000;
  options.policy.adaptive = false;
  options.admission.max_queue = 4;
  QueryServer server(&index, options);

  std::vector<std::future<ServedAnswer>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(server.Submit(Query::Reach(
        static_cast<NodeId>(rng.Uniform(n)), static_cast<NodeId>(rng.Uniform(n)))));
  }
  size_t rejected = 0, answered = 0;
  for (auto& f : futures) {
    const ServedAnswer served = f.get();
    if (served.rejected) {
      EXPECT_EQ(served.reject_reason, RejectReason::kQueueFull);
      ++rejected;
    } else {
      ++answered;
    }
  }
  // The queue never held more than the budget; everything beyond it (minus
  // what the dispatcher managed to pop mid-burst) was turned away.
  EXPECT_GT(rejected, 0u);
  EXPECT_GE(answered, 4u);
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(CounterId::kRejectedQueueFull), rejected);
  EXPECT_EQ(snap.counter(CounterId::kQueriesRejected), rejected);
  EXPECT_EQ(snap.counter(CounterId::kQueriesSubmitted), 20u);
}

TEST(QueryServerTest, TenantQuotaKeepsLightTenantServedUnderSkewedLoad) {
  Rng rng(1404);
  const size_t n = 60, k = 3;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  const Graph oracle = EdgeWorld::FromGraph(g).Build();

  ServerOptions options;
  options.policy.max_batch = 8;
  options.policy.max_window_us = 2000;
  options.admission.tenant_quota = 4;
  QueryServer server(&index, options);

  constexpr TenantId kHeavy = 7, kLight = 8;
  // The heavy tenant floods asynchronously (no waiting => in-flight grows
  // past the quota immediately); the light tenant runs a closed loop and
  // must never be turned away — the quota charges the flooder, not the
  // shared queues.
  std::atomic<size_t> heavy_rejected{0};
  std::thread heavy([&] {
    Rng hrng(42);
    std::vector<std::future<ServedAnswer>> inflight;
    for (int i = 0; i < 200; ++i) {
      inflight.push_back(server.Submit(
          Query::Reach(static_cast<NodeId>(hrng.Uniform(n)),
                       static_cast<NodeId>(hrng.Uniform(n))),
          kHeavy));
    }
    for (auto& f : inflight) {
      const ServedAnswer served = f.get();
      if (served.rejected) {
        EXPECT_EQ(served.reject_reason, RejectReason::kTenantQuota);
        heavy_rejected.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  Rng lrng(43);
  for (int i = 0; i < 30; ++i) {
    const NodeId s = static_cast<NodeId>(lrng.Uniform(n));
    const NodeId t = static_cast<NodeId>(lrng.Uniform(n));
    const ServedAnswer served = server.Submit(Query::Reach(s, t), kLight).get();
    ASSERT_FALSE(served.rejected) << "light tenant starved at query " << i;
    EXPECT_EQ(served.answer.reachable, CentralizedReach(oracle, s, t));
  }
  heavy.join();
  // The flood ran far past its quota, so most of it was shed.
  EXPECT_GT(heavy_rejected.load(), 100u);
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(CounterId::kRejectedTenantQuota),
            heavy_rejected.load());
  EXPECT_EQ(snap.gauge(GaugeId::kTenantsInFlight), 0.0);  // all drained
}

TEST(QueryServerTest, MetricsSnapshotCoversServingActivity) {
  Rng rng(1505);
  const size_t n = 50, k = 3, num_labels = 2;
  const Graph g = ErdosRenyi(n, 3 * n, num_labels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);

  ServerOptions options;
  options.cache.enabled = true;
  QueryServer server(&index, options);

  const Query repeat = Query::Reach(1, 2);
  server.Submit(repeat).get();
  server.Submit(repeat).get();  // hit
  server.Submit(Query::Dist(3, 4, 5)).get();
  server.AddEdge(0, 1);

  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(CounterId::kQueriesSubmitted), 3u);
  EXPECT_EQ(snap.counter(CounterId::kQueriesAnswered), 3u);
  EXPECT_EQ(snap.counter(CounterId::kCacheHits), 1u);
  EXPECT_EQ(snap.counter(CounterId::kUpdates), 1u);
  EXPECT_GE(snap.counter(CounterId::kBatches), 2u);
  EXPECT_GE(snap.counter(CounterId::kCacheInvalidated), 1u);
  EXPECT_EQ(snap.gauge(GaugeId::kEpoch), 1.0);
  EXPECT_EQ(snap.gauge(GaugeId::kEpochLag), 0.0);
  const HistogramSnapshot& sizes = snap.histogram(HistogramId::kBatchSize);
  EXPECT_GE(sizes.count, 2u);
  EXPECT_GE(sizes.max, 1.0);

  // The JSON export carries every cataloged metric name exactly once.
  const std::string json = server.MetricsJson();
  for (const auto& infos : {CounterInfos(), GaugeInfos(), HistogramInfos()}) {
    for (const MetricInfo& info : infos) {
      EXPECT_NE(json.find(std::string("\"") + info.name + "\""),
                std::string::npos)
          << info.name << " missing from MetricsJson";
    }
  }
}

}  // namespace
}  // namespace pereach
