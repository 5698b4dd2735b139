// Differential suite for the signature-cached index of glued product
// condensations: the rpq_path == kBoundaryIndex answer path must agree
// bit-for-bit with the paper's BES assembling path (and with the centralized
// oracle) across partitioners, equation forms, automata and interleaved
// AddEdges epochs — plus direct semantics checks on hand-built pair-keyed
// rows, the signature/LRU lifecycle, and the degenerate fragmentations.

#include "src/index/boundary_rpq_index.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
#include "src/core/local_eval.h"
#include "src/engine/partial_eval_engine.h"
#include "src/engine/site_runtime.h"
#include "src/fragment/partitioner.h"
#include "src/graph/generators.h"
#include "src/net/cluster.h"
#include "src/regex/canonical.h"
#include "src/regex/regex.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::AllPartitioners;
using testing_util::DiffContext;
using testing_util::EdgeWorld;
using testing_util::kAllEquationForms;
using testing_util::OracleRegularReach;
using testing_util::RandomPartition;
using testing_util::RandomRpqBatch;

constexpr uint32_t kFinal = QueryAutomaton::kFinal;

// ---------------------------------------------------------------------------
// Direct entry semantics on hand-built, pair-keyed product condensations

// Automaton sketch: interior state 2 (label A); kStart -> 2 -> 2 -> kFinal,
// so L = A+. F0 stores 10 -> 20 (20 virtual); F1 stores 20 -> 10 (10
// virtual) and an isolated 40; every node is labeled A. Keys are
// PackNodeState(node, state); u_s pairs are nobody's glue target, so they
// are in neither table.
BoundaryRows F0ProductRows() {
  BoundaryRows f0;  // 0 = (20v,2), 1 = (20v,u_t), 2 = (10,u_t), 3 = (10,2),
                    // 4 = (10,u_s)
  f0.offsets = {0, 0, 0, 0, 2, 3};
  f0.targets = {0, 1, 0};  // (10,2) -> (20v,2), (20v,u_t); (10,u_s) -> (20v,2)
  f0.oset_keys = {PackNodeState(20, kFinal), PackNodeState(20, 2)};
  f0.oset_comp = {1, 0};
  f0.in_keys = {PackNodeState(10, kFinal), PackNodeState(10, 2)};
  f0.in_comp = {2, 3};
  return f0;
}

BoundaryRows F1ProductRows(bool forty_to_ten) {
  BoundaryRows f1;  // 0 = (10v,2), 1 = (10v,u_t), 2 = (20,u_t), 3 = (20,2),
                    // 4 = (20,u_s), 5 = (40,u_t), 6 = (40,2), 7 = (40,u_s)
  f1.offsets = {0, 0, 0, 0, 2, 3, 3, 3, 3};
  f1.targets = {0, 1, 0};
  if (forty_to_ten) {  // an edge 40 -> 10: (40,2) and (40,u_s) like 20's
    f1.offsets = {0, 0, 0, 0, 2, 3, 3, 5, 6};
    f1.targets = {0, 1, 0, 0, 1, 0};
  }
  f1.oset_keys = {PackNodeState(10, kFinal), PackNodeState(10, 2)};
  f1.oset_comp = {1, 0};
  f1.in_keys = {PackNodeState(20, kFinal), PackNodeState(20, 2)};
  f1.in_comp = {2, 3};
  return f1;
}

TEST(BoundaryRpqIndexTest, HandBuiltProductGraphAnswers) {
  BoundaryRpqIndex index(/*num_fragments=*/2, /*max_entries=*/4);
  AutomatonSignature sig{1234, "hand-built"};
  BoundaryReachIndex& entry = index.GetEntry(sig);
  EXPECT_EQ(index.misses(), 1u);
  EXPECT_EQ(entry.DirtySites().size(), 2u);
  entry.SetFragmentRows(0, F0ProductRows());
  entry.SetFragmentRows(1, F1ProductRows(/*forty_to_ten=*/false));
  EXPECT_TRUE(entry.DirtySites().empty());
  entry.Ensure();
  EXPECT_EQ(entry.rebuild_count(), 1u);
  EXPECT_EQ(entry.num_nodes(), 13u);  // 5 + 8 product components

  // What the engine asks: does a condensation successor of (s, u_s) reach
  // (t, u_t)? Components by the rows' comments.
  const auto start = [&entry](SiteId site, uint32_t comp) {
    return entry.Node(site, comp);
  };
  const auto rpq = [&entry](uint32_t s_node, uint32_t t_node) {
    std::vector<uint32_t> succ;
    entry.AppendSuccessors(s_node, &succ);
    const std::vector<WordQuestion> q = {{succ, {&t_node, 1}}};
    std::vector<uint8_t> answers;
    entry.AnswerBatch(q, &answers);
    return answers[0] != 0;
  };
  const uint32_t s10 = start(0, 4), s20 = start(1, 4), s40 = start(1, 7);
  const uint32_t t10 = entry.Node(0, 2), t20 = entry.Node(1, 2);
  const uint32_t t40 = entry.Node(1, 5);
  // (10, u_s) steps to (20v, 2) only: A+ rejects the single edge 10 -> 20.
  std::vector<uint32_t> succ;
  entry.AppendSuccessors(s10, &succ);
  EXPECT_EQ(succ, std::vector<uint32_t>{entry.Node(0, 0)});
  EXPECT_TRUE(rpq(s10, t10));   // 10 -> 20 -> 10: a cycle through F1
  EXPECT_TRUE(rpq(s10, t20));   // 10 -> 20 -> 10 -> 20: interior AA
  EXPECT_TRUE(rpq(s20, t20));   // 20 -> 10 -> 20: a cycle through F0
  EXPECT_FALSE(rpq(s40, t10));  // 40 has no edge
  EXPECT_FALSE(rpq(s10, t40));  // accept sink never entered
  // Same node, different state: distinct product nodes, glued per key.
  EXPECT_TRUE(entry.Reaches(entry.Node(0, 3), entry.Node(1, 3)));
  EXPECT_TRUE(entry.Reaches(entry.Node(1, 3), entry.Node(0, 3)));
  EXPECT_FALSE(entry.Reaches(entry.Node(0, 2), entry.Node(0, 3)));

  // Invalidation dirties every entry of the index; a refresh + Ensure
  // rebuilds once.
  index.InvalidateFragment(1);
  EXPECT_EQ(entry.DirtySites(), std::vector<SiteId>{1});
  entry.SetFragmentRows(1, F1ProductRows(/*forty_to_ten=*/true));
  entry.Ensure();
  EXPECT_EQ(entry.rebuild_count(), 2u);
  EXPECT_TRUE(rpq(s40, t20));   // 40 -> 10 -> 20
  EXPECT_FALSE(rpq(s40, t40));  // no cycle through 40
}

// ---------------------------------------------------------------------------
// Signature / LRU lifecycle through the engine

TEST(BoundaryRpqIndexTest, SignatureCacheHitsEvictionsAndRebuilds) {
  Rng rng(4711);
  const size_t n = 60, kSites = 3, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  options.rpq_cache_entries = 2;
  PartialEvalEngine engine(&cluster, options);

  // Three automata with pairwise distinct languages (hence signatures).
  std::vector<QueryAutomaton> automata;
  automata.push_back(QueryAutomaton::WildcardStar());
  automata.push_back(
      QueryAutomaton::FromRegex(Regex::Star(Regex::Symbol(0))).value());
  automata.push_back(
      QueryAutomaton::FromRegex(Regex::Star(Regex::Symbol(1))).value());

  const auto run = [&](const QueryAutomaton& a) {
    std::vector<Query> batch;
    for (size_t q = 0; q < 6; ++q) {
      batch.push_back(Query::Rpq(static_cast<NodeId>(rng.Uniform(n)),
                                 static_cast<NodeId>(rng.Uniform(n)), a));
    }
    engine.EvaluateBatch(batch);
  };

  run(automata[0]);
  const BoundaryRpqIndex* index = engine.boundary_rpq_index();
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->num_entries(), 1u);
  EXPECT_EQ(index->total_rebuilds(), 1u);

  // Same automaton again: one LRU hit per batch, zero refresh rounds.
  run(automata[0]);
  EXPECT_EQ(index->total_rebuilds(), 1u);
  EXPECT_GT(index->hits(), 0u);

  // A batch mixing all three automata overflows the cap of 2: the LRU
  // grows for the batch (entries are pinned), then evicts down on the next
  // batch's misses.
  std::vector<Query> mixed;
  for (const QueryAutomaton& a : automata) {
    mixed.push_back(Query::Rpq(0, static_cast<NodeId>(n - 1), a));
  }
  engine.EvaluateBatch(mixed);
  EXPECT_EQ(index->total_rebuilds(), 3u);

  // Re-running a single-automaton batch evicts someone; re-touching an
  // evicted signature later pays a fresh refresh round + rebuild.
  run(automata[1]);
  run(automata[2]);
  EXPECT_GT(index->evictions(), 0u);
  EXPECT_LE(index->num_entries(), 2u);
  const size_t rebuilds_before = index->total_rebuilds();
  run(automata[0]);  // evicted by now: cap 2, two newer signatures live
  EXPECT_GT(index->total_rebuilds(), rebuilds_before);

  // Eviction and rebuild never change answers: compare against BES.
  PartialEvalEngine bes_engine(&cluster);
  for (const QueryAutomaton& a : automata) {
    for (size_t q = 0; q < 20; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      const Query query = Query::Rpq(s, t, a);
      EXPECT_EQ(engine.Evaluate(query).reachable,
                bes_engine.Evaluate(query).reachable)
          << "s=" << s << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: indexed answers == BES answers == oracle

TEST(BoundaryRpqDifferentialTest,
     MatchesBesAcrossPartitionersFormsAndEpochs) {
  constexpr size_t kSites = 4, kEpochs = 3, kQueriesPerEpoch = 24;
  constexpr size_t kLabels = 3;
  constexpr uint64_t kSeed = 271828;
  Rng rng(kSeed);
  for (const auto& partitioner : AllPartitioners()) {
    for (const EquationForm form : kAllEquationForms) {
      const size_t n = 50 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
      const std::vector<SiteId> part = partitioner->Partition(g, kSites, &rng);
      IncrementalReachIndex index(g, part, kSites);
      EdgeWorld world = EdgeWorld::FromGraph(g);

      Cluster cluster(&index.fragmentation(), NetworkModel{});
      PartialEvalOptions bes_options;
      bes_options.form = form;
      PartialEvalEngine bes_engine(&cluster, bes_options);
      PartialEvalOptions idx_options;
      idx_options.form = form;
      idx_options.rpq_path = RpqAnswerPath::kBoundaryIndex;
      PartialEvalEngine idx_engine(&cluster, idx_options);
      index.SetUpdateListener([&](SiteId site) {
        bes_engine.InvalidateFragment(site);
        idx_engine.InvalidateFragment(site);
      });

      for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const Graph oracle = world.Build();
        // Automata repeat within the batch (pool of 4): the refresh round
        // and the standing entries get shared across queries, and the s==t
        // cycle case rides along via uniform endpoint sampling.
        std::vector<Query> batch =
            RandomRpqBatch(n, kQueriesPerEpoch, 4, kLabels, &rng);
        batch.push_back(Query::Rpq(0, 0, QueryAutomaton::WildcardStar()));

        const BatchAnswer bes = bes_engine.EvaluateBatch(batch);
        const BatchAnswer indexed = idx_engine.EvaluateBatch(batch);
        for (size_t q = 0; q < batch.size(); ++q) {
          const bool expected = OracleRegularReach(
              oracle, batch[q].source, batch[q].target, *batch[q].automaton);
          ASSERT_EQ(bes.answers[q].reachable, expected)
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].reachable, expected)
              << "glued product index diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
        }

        index.AddEdges(world.AddRandomEdges(3, &rng));
      }
      index.SetUpdateListener(nullptr);

      const BoundaryRpqIndex* rpq_index = idx_engine.boundary_rpq_index();
      ASSERT_NE(rpq_index, nullptr);
      EXPECT_GT(rpq_index->num_entries(), 0u);
      EXPECT_GT(rpq_index->hits(), 0u);  // repeated automata actually hit
    }
  }
}

// Wildcard-star is plain reachability (§2.2): the indexed rpq path must
// agree with both the reach oracle and the indexed reach path, including
// the s == t cycle semantics (reach is reflexive, rpq needs a cycle).
TEST(BoundaryRpqDifferentialTest, WildcardStarMatchesReach) {
  Rng rng(5150);
  const size_t n = 60, kSites = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);

  const QueryAutomaton wildcard = QueryAutomaton::WildcardStar();
  for (size_t q = 0; q < 80; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = q < 8 ? s : static_cast<NodeId>(rng.Uniform(n));
    const bool rpq = engine.Evaluate(Query::Rpq(s, t, wildcard)).reachable;
    if (s == t) {
      // q_rr(s, s, _*) asks for a real cycle through s, not reflexivity.
      EXPECT_EQ(rpq, OracleRegularReach(g, s, s, wildcard))
          << "s=t=" << s;
    } else {
      EXPECT_EQ(rpq, CentralizedReach(g, s, t)) << "s=" << s << " t=" << t;
      EXPECT_EQ(rpq, engine.Evaluate(Query::Reach(s, t)).reachable);
    }
  }
}

// Boundary-node endpoints: force s and t onto in-nodes/virtual-copy owners
// by querying every cross-edge endpoint pair of the paper's example.
TEST(BoundaryRpqDifferentialTest, BoundaryEndpointAndPaperExample) {
  const testing_util::PaperExample ex = testing_util::MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);
  PartialEvalEngine bes_engine(&cluster);

  const LabelId hr = ex.labels.Find("HR");
  // Example 8's query: Ann reaches Mark through an HR-only chain.
  const QueryAutomaton hr_star =
      QueryAutomaton::FromRegex(Regex::Star(Regex::Symbol(hr))).value();
  EXPECT_TRUE(
      engine.Evaluate(Query::Rpq(ex.ann, ex.mark, hr_star)).reachable);

  std::vector<QueryAutomaton> automata = {hr_star,
                                          QueryAutomaton::WildcardStar()};
  for (const QueryAutomaton& a : automata) {
    for (NodeId s = 0; s < ex.graph.NumNodes(); ++s) {
      for (NodeId t = 0; t < ex.graph.NumNodes(); ++t) {
        const Query q = Query::Rpq(s, t, a);
        const bool expected = OracleRegularReach(ex.graph, s, t, a);
        EXPECT_EQ(bes_engine.Evaluate(q).reachable, expected)
            << "bes s=" << s << " t=" << t;
        EXPECT_EQ(engine.Evaluate(q).reachable, expected)
            << "indexed s=" << s << " t=" << t;
      }
    }
  }
}

// Degenerate fragmentations: a single site (no boundary pairs at all, one
// fragment's product condensation decides everything) and one node per site
// (every node is boundary, the glued graph IS the global product).
TEST(BoundaryRpqDifferentialTest, DegenerateFragmentCounts) {
  Rng rng(23);
  const size_t n = 24, kLabels = 2;
  const Graph g = ErdosRenyi(n, 2 * n, kLabels, &rng);
  const QueryAutomaton a =
      QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng)).value();
  for (const size_t k : {size_t{1}, n}) {
    const std::vector<SiteId> part =
        k == 1 ? std::vector<SiteId>(n, 0) : [&] {
          std::vector<SiteId> p(n);
          for (NodeId v = 0; v < n; ++v) p[v] = static_cast<SiteId>(v);
          return p;
        }();
    const Fragmentation frag = Fragmentation::Build(g, part, k);
    Cluster cluster(&frag, NetworkModel{});
    PartialEvalOptions options;
    options.rpq_path = RpqAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    for (int q = 0; q < 50; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      EXPECT_EQ(engine.Evaluate(Query::Rpq(s, t, a)).reachable,
                OracleRegularReach(g, s, t, a))
          << "k=" << k << " s=" << s << " t=" << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Batch-level automaton dedup on the BES broadcast

TEST(RpqBatchDedupTest, IdenticalAutomataShipOncePerBatch) {
  Rng rng(77);
  const size_t n = 60, kSites = 4, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine engine(&cluster);

  const QueryAutomaton a =
      QueryAutomaton::FromRegex(Regex::Random(6, kLabels, &rng)).value();
  std::vector<Query> batch;
  for (size_t q = 0; q < 16; ++q) {
    batch.push_back(Query::Rpq(static_cast<NodeId>(rng.Uniform(n)),
                               static_cast<NodeId>(rng.Uniform(n)), a));
  }

  // Warm the contexts so both measurements ship identical reply shapes.
  engine.EvaluateBatch(std::span<const Query>(batch.data(), 1));
  const RunMetrics batched = engine.EvaluateBatch(batch).metrics;
  RunMetrics singles;
  for (const Query& q : batch) {
    singles.Accumulate(
        engine.EvaluateBatch(std::span<const Query>(&q, 1)).metrics);
  }
  // 16 identical regexes in one batch must ship strictly less broadcast
  // than 16 single-query rounds: the batch's automaton table carries ONE
  // canonical automaton, the singles carry 16. Ten automata's worth of
  // bytes is a conservative floor for the gap.
  const size_t automaton_bytes = Canonicalize(a).signature.key.size();
  EXPECT_LT(batched.traffic_bytes + 10 * automaton_bytes,
            singles.traffic_bytes);
}

// Sites key their product caches by the automaton bytes the coordinator
// ships — the canonical automaton's Serialize bytes, its signature key — so
// the sweep after a refresh, and every warm batch after that, find the
// products the refresh built: a warm rpq batch builds no product at any
// site, and language-equal regexes share one product.
TEST(RpqSiteCacheTest, WarmBatchBuildsNoProductAtAnySite) {
  Rng rng(5);
  const size_t n = 60, kSites = 4, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const Fragmentation frag =
      Fragmentation::Build(g, RandomPartition(n, kSites, &rng), kSites);
  LabelDictionary labels;
  for (size_t l = 0; l < kLabels; ++l) labels.Intern("l" + std::to_string(l));
  const QueryAutomaton a =
      QueryAutomaton::FromRegex(Regex::Parse("l0 l1*", labels).value())
          .value();
  const QueryAutomaton a_twin =
      QueryAutomaton::FromRegex(Regex::Parse("(l0 | l0) l1*", labels).value())
          .value();
  const QueryAutomaton b =
      QueryAutomaton::FromRegex(Regex::Parse("(l1 | l2)*", labels).value())
          .value();
  std::vector<Query> batch;
  std::vector<size_t> wire;
  for (const QueryAutomaton* automaton : {&a, &a_twin, &b, &a, &b}) {
    wire.push_back(batch.size());
    batch.push_back(Query::Rpq(static_cast<NodeId>(rng.Uniform(n)),
                               static_cast<NodeId>(rng.Uniform(n)),
                               *automaton));
  }
  const BatchBroadcast sweep = EncodeBatchBroadcast(batch, wire);
  ASSERT_EQ(sweep.automata.size(), 2u);

  // The refresh payload every site is sent: one rpq index entry per
  // automaton.
  Encoder refresh;
  refresh.PutVarint(sweep.automata.size());
  for (const CanonicalAutomaton& canon : sweep.automata) {
    refresh.PutU8(static_cast<uint8_t>(QueryKind::kRpq));
    canon.automaton.Serialize(&refresh);
  }

  FragmentContextCache contexts(&frag);
  const auto run = [&](RoundKind kind, const std::vector<uint8_t>& bytes) {
    std::vector<size_t> builds;
    for (SiteId site = 0; site < kSites; ++site) {
      FragmentContext& ctx = contexts.Get(site);
      const Result<std::vector<uint8_t>> reply =
          RunSiteRound(frag.fragment(site), &ctx, kind, 0, bytes);
      EXPECT_TRUE(reply.ok()) << reply.status().ToString();
      builds.push_back(ctx.section_builds());
    }
    return builds;
  };
  const std::vector<size_t> cold = run(RoundKind::kIndexRows, refresh.buffer());
  for (SiteId site = 0; site < kSites; ++site) {
    EXPECT_EQ(contexts.Get(site).rpq_cache_size(), 2u) << "site " << site;
  }
  EXPECT_EQ(run(RoundKind::kIndexSweep, sweep.bytes), cold);
  EXPECT_EQ(run(RoundKind::kIndexSweep, sweep.bytes), cold);  // warm batch
}

}  // namespace
}  // namespace pereach
