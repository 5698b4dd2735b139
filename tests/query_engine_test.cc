// Tests for the unified QueryEngine subsystem: batch-vs-single equivalence
// across equation forms, O(1) communication rounds per batch, batch traffic
// strictly below sequential singles, FragmentContext cache coherence under
// incremental edge updates, and baseline engines behind the same interface.

#include "src/engine/partial_eval_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/dis_dist.h"
#include "src/core/dis_reach.h"
#include "src/core/dis_rpq.h"
#include "src/core/incremental.h"
#include "src/engine/baseline_engines.h"
#include "src/graph/generators.h"
#include "src/net/transport.h"
#include "src/regex/canonical.h"
#include "src/regex/regex.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::EdgeWorld;
using testing_util::MakeGraph;
using testing_util::MakePaperExample;
using testing_util::PaperExample;
using testing_util::RandomPartition;
using testing_util::RandomReachBatch;

class EquationFormEngineTest : public ::testing::TestWithParam<EquationForm> {
};

// The randomized differential core: EvaluateBatch answers must match both
// the single-query wrappers and the centralized oracle, for every equation
// form, on random graphs and partitions.
TEST_P(EquationFormEngineTest, BatchMatchesSinglesAndOracle) {
  const EquationForm form = GetParam();
  Rng rng(42 + static_cast<uint64_t>(form));
  for (int trial = 0; trial < 4; ++trial) {
    const size_t n = 30 + 30 * static_cast<size_t>(trial);
    const Graph g = ErdosRenyi(n, 3 * n, 3, &rng);
    const size_t k = 2 + trial;
    const std::vector<SiteId> part = RandomPartition(n, k, &rng);
    const Fragmentation frag = Fragmentation::Build(g, part, k);
    Cluster cluster(&frag, NetworkModel());
    PartialEvalEngine engine(&cluster, {.form = form});

    std::vector<Query> batch = RandomReachBatch(n, 24, &rng);
    batch.push_back(Query::Reach(5, 5));  // trivial member
    const BatchAnswer result = engine.EvaluateBatch(batch);
    ASSERT_EQ(result.answers.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Query& q = batch[i];
      ASSERT_EQ(result.answers[i].reachable,
                CentralizedReach(g, q.source, q.target))
          << "form=" << static_cast<int>(form) << " s=" << q.source
          << " t=" << q.target;
      ASSERT_EQ(result.answers[i].reachable,
                DisReach(&cluster, {q.source, q.target}).reachable);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Forms, EquationFormEngineTest,
                         ::testing::Values(EquationForm::kAuto,
                                           EquationForm::kClosure,
                                           EquationForm::kDag),
                         [](const ::testing::TestParamInfo<EquationForm>& i) {
                           switch (i.param) {
                             case EquationForm::kAuto: return "auto";
                             case EquationForm::kClosure: return "closure";
                             case EquationForm::kDag: return "dag";
                           }
                           return "unknown";
                         });

// Acceptance criterion: a batch of k reachability queries completes in O(1)
// communication rounds — exactly one here — with one visit and at most two
// messages per site, independent of k.
TEST(QueryEngineBatchTest, BatchOfManyQueriesIsOneRound) {
  Rng rng(7);
  const Graph g = ErdosRenyi(120, 360, 3, &rng);
  const std::vector<SiteId> part = RandomPartition(120, 6, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, 6);
  Cluster cluster(&frag, NetworkModel());
  PartialEvalEngine engine(&cluster);

  for (size_t batch_size : {2u, 16u, 64u}) {
    const std::vector<Query> batch = RandomReachBatch(120, batch_size, &rng);
    const BatchAnswer result = engine.EvaluateBatch(batch);
    EXPECT_EQ(result.metrics.rounds, 1u) << "batch_size=" << batch_size;
    EXPECT_LE(result.metrics.messages, 2 * frag.num_fragments());
    EXPECT_EQ(result.metrics.queries, batch_size);
    for (size_t v : result.metrics.site_visits) EXPECT_EQ(v, 1u);
  }
}

TEST(QueryEngineBatchTest, AllTrivialBatchTouchesNoSite) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  Cluster cluster(&frag, NetworkModel());
  PartialEvalEngine engine(&cluster);
  const std::vector<Query> batch = {Query::Reach(1, 1), Query::Dist(2, 2, 5)};
  const BatchAnswer result = engine.EvaluateBatch(batch);
  EXPECT_EQ(result.metrics.rounds, 0u);
  EXPECT_EQ(result.metrics.TotalVisits(), 0u);
  EXPECT_TRUE(result.answers[0].reachable);
  EXPECT_EQ(result.answers[1].distance, 0u);
}

// Acceptance criterion: the batch costs strictly less traffic and modeled
// response time than the same queries run sequentially (the shared oset
// table amortizes, and 2·latency is paid once instead of k times).
TEST(QueryEngineBatchTest, BatchBeatsSequentialSinglesOnTrafficAndTime) {
  Rng rng(11);
  const size_t n = 200;
  const Graph g = ErdosRenyi(n, 4 * n, 3, &rng);
  const std::vector<SiteId> part = RandomPartition(n, 8, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, 8);
  Cluster cluster(&frag, NetworkModel());
  PartialEvalEngine engine(&cluster);

  const std::vector<Query> batch = RandomReachBatch(n, 64, &rng);

  RunMetrics sequential;
  for (const Query& q : batch) {
    sequential.Accumulate(engine.Evaluate(q).metrics);
  }
  const BatchAnswer batched = engine.EvaluateBatch(batch);

  EXPECT_EQ(sequential.rounds, 64u);
  EXPECT_EQ(batched.metrics.rounds, 1u);
  EXPECT_LT(batched.metrics.traffic_bytes, sequential.traffic_bytes);
  EXPECT_LT(batched.metrics.modeled_ms, sequential.modeled_ms);
}

// A heterogeneous batch multiplexes all three query classes through one
// round and still matches the per-class single-query paths.
TEST(QueryEngineBatchTest, MixedKindBatchMatchesSingles) {
  Rng rng(23);
  const size_t n = 80;
  const Graph g = ErdosRenyi(n, 3 * n, 4, &rng);
  const std::vector<SiteId> part = RandomPartition(n, 4, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, 4);
  Cluster cluster(&frag, NetworkModel());
  PartialEvalEngine engine(&cluster);

  std::vector<Query> batch;
  std::vector<QueryAutomaton> automata;
  for (int i = 0; i < 8; ++i) {
    automata.push_back(
        QueryAutomaton::FromRegex(Regex::Random(3, 4, &rng)).value());
  }
  for (int i = 0; i < 24; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = static_cast<NodeId>(rng.Uniform(n));
    switch (i % 3) {
      case 0: batch.push_back(Query::Reach(s, t)); break;
      case 1: batch.push_back(Query::Dist(s, t, 1 + i % 7)); break;
      case 2: batch.push_back(Query::Rpq(s, t, automata[i % 8])); break;
    }
  }

  const BatchAnswer result = engine.EvaluateBatch(batch);
  EXPECT_EQ(result.metrics.rounds, 1u);
  for (size_t i = 0; i < batch.size(); ++i) {
    const Query& q = batch[i];
    switch (q.kind) {
      case QueryKind::kReach:
        ASSERT_EQ(result.answers[i].reachable,
                  DisReach(&cluster, {q.source, q.target}).reachable)
            << "i=" << i;
        break;
      case QueryKind::kDist: {
        const QueryAnswer single =
            DisDist(&cluster, {q.source, q.target, q.bound});
        ASSERT_EQ(result.answers[i].reachable, single.reachable) << "i=" << i;
        ASSERT_EQ(result.answers[i].distance, single.distance) << "i=" << i;
        break;
      }
      case QueryKind::kRpq:
        ASSERT_EQ(result.answers[i].reachable,
                  DisRpqAutomaton(&cluster, q.source, q.target, *q.automaton)
                      .reachable)
            << "i=" << i;
        break;
    }
  }
}

// kBatchEval and kIndexSweep rounds ship one broadcast format. A batch
// without regular queries is its queries' own wire form; regular queries
// carry a table reference instead, and the table — one canonical automaton
// per distinct language, in first-use order — is appended only then.
TEST(BatchBroadcastTest, AutomatonTableOnlyWithRegularQueries) {
  const std::vector<Query> plain = {Query::Reach(3, 200), Query::Dist(7, 1, 4),
                                    Query::Reach(0, 9)};
  for (const std::vector<size_t>& wire :
       {std::vector<size_t>{0, 2}, std::vector<size_t>{1},
        std::vector<size_t>{2, 1, 0}}) {
    Encoder expected;
    expected.PutVarint(wire.size());
    for (size_t qi : wire) plain[qi].Serialize(&expected);
    const BatchBroadcast got = EncodeBatchBroadcast(plain, wire);
    EXPECT_EQ(got.bytes, expected.buffer());
    EXPECT_TRUE(got.automata.empty());
  }

  LabelDictionary labels;
  labels.Intern("a");
  labels.Intern("b");
  const auto automaton = [&labels](const char* regex) {
    return QueryAutomaton::FromRegex(Regex::Parse(regex, labels).value())
        .value();
  };
  const std::vector<Query> mixed = {Query::Rpq(1, 2, automaton("a b*")),
                                    Query::Reach(4, 5),
                                    Query::Rpq(6, 7, automaton("b")),
                                    Query::Rpq(8, 9, automaton("(a | a) b*"))};
  const BatchBroadcast got = EncodeBatchBroadcast(mixed, {0, 1, 2, 3});
  ASSERT_EQ(got.automata.size(), 2u);
  EXPECT_EQ(got.automaton_ref, (std::vector<uint32_t>{0, 0, 1, 0}));
  Encoder expected;
  expected.PutVarint(4);
  for (size_t qi = 0; qi < mixed.size(); ++qi) {
    mixed[qi].SerializeHeader(&expected);
    if (mixed[qi].kind == QueryKind::kRpq) {
      expected.PutVarint(got.automaton_ref[qi]);
    }
  }
  expected.PutVarint(2);
  for (const CanonicalAutomaton& canon : got.automata) {
    EXPECT_EQ(canon.signature.key, Canonicalize(canon.automaton).signature.key);
    canon.automaton.Serialize(&expected);
  }
  EXPECT_EQ(got.bytes, expected.buffer());
}

// The closure fast path reads cached rows instead of re-running localEval;
// a warm cache must serve whole batches without any section rebuild.
// Two inputs run every site round on the engine's context cache: a
// simulated cluster, and a socket cluster whose unreachable endpoints make
// every round degrade to local evaluation.
TEST(QueryEngineCacheTest, WarmContextServesBatchesWithoutRebuild) {
  TransportOptions unreachable;
  unreachable.backend = TransportBackend::kSocket;
  for (SiteId s = 0; s < 5; ++s) {
    unreachable.connect.push_back("unix:/nonexistent/pereach-" +
                                  std::to_string(s) + ".sock");
  }
  unreachable.connect_timeout_ms = 100;
  unreachable.max_retries = 0;
  unreachable.retry_backoff_ms = 1;
  unreachable.round_retries = 0;

  for (const TransportOptions& transport : {TransportOptions{}, unreachable}) {
    const bool sim = transport.backend == TransportBackend::kSim;
    SCOPED_TRACE(sim ? "sim" : "degraded");
    Rng rng(31);
    const size_t n = 100;
    const Graph g = ErdosRenyi(n, 3 * n, 3, &rng);
    const std::vector<SiteId> part = RandomPartition(n, 5, &rng);
    const Fragmentation frag = Fragmentation::Build(g, part, 5);
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/0, transport);
    PartialEvalEngine engine(&cluster, {.form = EquationForm::kClosure});

    const auto run = [&](size_t count) {
      return engine.EvaluateBatch(RandomReachBatch(n, count, &rng)).status;
    };

    ASSERT_TRUE(run(8).ok());
    const size_t builds_after_warmup = engine.context_cache().build_count();
    EXPECT_EQ(builds_after_warmup, frag.num_fragments());

    ASSERT_TRUE(run(32).ok());
    EXPECT_EQ(engine.context_cache().build_count(), builds_after_warmup);

    engine.InvalidateFragment(0);
    ASSERT_TRUE(run(4).ok());
    EXPECT_EQ(engine.context_cache().build_count(), builds_after_warmup + 1);
  }
}

// Differential test over incremental updates: after each AddEdge flows
// through the IncrementalReachIndex hook, a warm engine (cached contexts,
// selectively invalidated) must agree with a cold engine and the oracle.
TEST(QueryEngineCacheTest, CachedContextMatchesColdStartAfterUpdates) {
  Rng rng(57);
  const size_t n = 60;
  const size_t k = 4;
  Graph g = ErdosRenyi(n, 2 * n, 3, &rng);
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);

  // Track edges alongside the index so the centralized oracle sees the same
  // evolving graph.
  EdgeWorld world = EdgeWorld::FromGraph(g);

  IncrementalReachIndex index(g, part, k);
  Cluster cluster(&index.fragmentation(), NetworkModel());
  PartialEvalEngine warm(&cluster, {.form = EquationForm::kClosure});
  index.SetUpdateListener([&warm](SiteId site) {
    warm.InvalidateFragment(site);
  });

  for (int round = 0; round < 6; ++round) {
    const std::vector<Query> batch = RandomReachBatch(n, 16, &rng);
    const BatchAnswer warm_answers = warm.EvaluateBatch(batch);

    PartialEvalEngine cold(&cluster, {.form = EquationForm::kClosure});
    const BatchAnswer cold_answers = cold.EvaluateBatch(batch);

    const Graph current = world.Build();

    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(warm_answers.answers[i].reachable,
                cold_answers.answers[i].reachable)
          << "round=" << round << " i=" << i;
      ASSERT_EQ(warm_answers.answers[i].reachable,
                CentralizedReach(current, batch[i].source, batch[i].target))
          << "round=" << round << " i=" << i;
    }

    const auto added = world.AddRandomEdges(1, &rng);
    index.AddEdge(added[0].first, added[0].second);
  }
}

// Baselines behind the engine interface answer identically; the ship-all
// engine amortizes its Θ(|G|) shipping over the batch (still one round).
TEST(BaselineEngineTest, NaiveAndMessagePassingAgreeWithPartialEval) {
  Rng rng(71);
  const size_t n = 70;
  const Graph g = ErdosRenyi(n, 3 * n, 3, &rng);
  const std::vector<SiteId> part = RandomPartition(n, 4, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, 4);
  Cluster cluster(&frag, NetworkModel());

  PartialEvalEngine pe(&cluster);
  NaiveShipAllEngine naive(&cluster);
  MessagePassingEngine mp(&cluster);

  const std::vector<Query> batch = RandomReachBatch(n, 20, &rng);
  const BatchAnswer pe_result = pe.EvaluateBatch(batch);
  const BatchAnswer naive_result = naive.EvaluateBatch(batch);
  const BatchAnswer mp_result = mp.EvaluateBatch(batch);

  EXPECT_EQ(naive_result.metrics.rounds, 1u);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(pe_result.answers[i].reachable,
              naive_result.answers[i].reachable);
    ASSERT_EQ(pe_result.answers[i].reachable, mp_result.answers[i].reachable);
  }
}

TEST(BaselineEngineTest, SuciuEngineMatchesPartialEvalOnRegularQueries) {
  Rng rng(83);
  const size_t n = 50;
  const Graph g = ErdosRenyi(n, 3 * n, 4, &rng);
  const std::vector<SiteId> part = RandomPartition(n, 3, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, 3);
  Cluster cluster(&frag, NetworkModel());

  PartialEvalEngine pe(&cluster);
  SuciuRpqEngine suciu(&cluster);

  std::vector<Query> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(Query::Rpq(static_cast<NodeId>(rng.Uniform(n)),
                               static_cast<NodeId>(rng.Uniform(n)),
                               QueryAutomaton::FromRegex(
                                   Regex::Random(3, 4, &rng)).value()));
  }
  const BatchAnswer pe_result = pe.EvaluateBatch(batch);
  const BatchAnswer suciu_result = suciu.EvaluateBatch(batch);
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(pe_result.answers[i].reachable,
              suciu_result.answers[i].reachable)
        << "i=" << i;
  }
}

}  // namespace
}  // namespace pereach
