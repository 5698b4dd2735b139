// Differential suite for the coordinator's boundary-graph reach index: the
// kBoundaryIndex answer path must agree bit-for-bit with the paper's BES
// assembling path (and with a centralized oracle) across partitioners,
// equation forms, and interleaved AddEdges epochs — the boundary index is a
// short-circuit, never a semantics change.

#include "src/index/boundary_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
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
using testing_util::RandomPartition;

// ---------------------------------------------------------------------------
// Hand-built condensations

// F0 stores 10 -> 11 -> {20, 30} (20 and 30 virtual); F1 stores the cycle
// 20 <-> 30 with 20 -> 10 (10 virtual) and an isolated in-node 40. Glued,
// 10 -> 11 -> 20 -> 10 is one cross-fragment cycle.
BoundaryRows F0Rows() {
  BoundaryRows f0;  // comps: 0 = 20v, 1 = 30v, 2 = {11}, 3 = {10}
  f0.offsets = {0, 0, 0, 2, 3};
  f0.targets = {0, 1, 2};
  f0.oset_keys = {20, 30};
  f0.oset_comp = {0, 1};
  f0.in_keys = {10};
  f0.in_comp = {3};
  return f0;
}

BoundaryRows F1Rows(bool forty_reaches_ten) {
  BoundaryRows f1;  // comps: 0 = 10v, 1 = {20, 30}, 2 = {40}
  f1.offsets = {0, 0, 1, forty_reaches_ten ? size_t{2} : size_t{1}};
  f1.targets = {0};
  if (forty_reaches_ten) f1.targets.push_back(0);
  f1.oset_keys = {10};
  f1.oset_comp = {0};
  f1.in_keys = {20, 30, 40};
  f1.in_comp = {1, 1, 2};
  return f1;
}

TEST(BoundaryRowsTest, SerializeRoundTrips) {
  for (const BoundaryRows& rows : {F0Rows(), F1Rows(true)}) {
    Encoder enc;
    rows.Serialize(&enc);
    Decoder dec(enc.buffer(), Decoder::OnError::kStatus);
    const BoundaryRows back = BoundaryRows::Deserialize(&dec);
    EXPECT_TRUE(dec.Done());
    EXPECT_EQ(back.offsets, rows.offsets);
    EXPECT_EQ(back.targets, rows.targets);
    EXPECT_EQ(back.oset_keys, rows.oset_keys);
    EXPECT_EQ(back.oset_comp, rows.oset_comp);
    EXPECT_EQ(back.in_keys, rows.in_keys);
    EXPECT_EQ(back.in_comp, rows.in_comp);
  }
}

TEST(BoundaryReachIndexTest, HandBuiltGraphAnswersAndInvalidates) {
  BoundaryReachIndex index(2);
  EXPECT_EQ(index.DirtySites().size(), 2u);
  index.SetFragmentRows(0, F0Rows());
  index.SetFragmentRows(1, F1Rows(/*forty_reaches_ten=*/false));
  EXPECT_TRUE(index.DirtySites().empty());
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  EXPECT_EQ(index.num_nodes(), 7u);  // 4 + 3 components

  const uint32_t n10 = index.Node(0, 3), n11 = index.Node(0, 2);
  const uint32_t v30 = index.Node(0, 1);
  const uint32_t n20 = index.Node(1, 1), n40 = index.Node(1, 2);
  EXPECT_EQ(index.Node(0, 4), BoundaryReachIndex::kNoNode);
  EXPECT_EQ(index.Node(1, 3), BoundaryReachIndex::kNoNode);
  EXPECT_EQ(index.Node(1, uint64_t{1} << 40), BoundaryReachIndex::kNoNode);

  EXPECT_TRUE(index.Reaches(n10, n10));  // reflexive
  EXPECT_TRUE(index.Reaches(n10, n20));  // through 20's virtual copy
  EXPECT_TRUE(index.Reaches(n20, n10));  // through 10's virtual copy
  EXPECT_TRUE(index.Reaches(n11, n10));  // around the glued cycle
  EXPECT_FALSE(index.Reaches(n40, n10));
  EXPECT_FALSE(index.Reaches(n10, n40));

  // The word path agrees with the scalar path on every pair.
  std::vector<uint32_t> ids(index.num_nodes());
  for (uint32_t u = 0; u < ids.size(); ++u) ids[u] = u;
  const std::span<const uint32_t> all(ids);
  std::vector<WordQuestion> questions;
  for (uint32_t u = 0; u < ids.size(); ++u) {
    for (uint32_t v = 0; v < ids.size(); ++v) {
      questions.push_back({all.subspan(u, 1), all.subspan(v, 1)});
    }
  }
  std::vector<uint8_t> answers;
  index.AnswerBatch(questions, &answers);
  ASSERT_EQ(answers.size(), questions.size());
  for (size_t i = 0; i < questions.size(); ++i) {
    const uint32_t u = questions[i].sources[0];
    const uint32_t v = questions[i].targets[0];
    EXPECT_EQ(answers[i] != 0, index.Reaches(u, v)) << u << " -> " << v;
  }
  // A set question is true iff some source reaches some target; an empty
  // side answers false.
  const uint32_t from[] = {n40, n11};
  const uint32_t to[] = {n10};
  const std::vector<WordQuestion> sets = {
      {from, to}, {std::span(from).first(1), to}, {{}, to}, {from, {}}};
  index.AnswerBatch(sets, &answers);
  EXPECT_EQ(answers, (std::vector<uint8_t>{1, 0, 0, 0}));

  // A node's successors in its own fragment's condensation: glue edges are
  // not listed.
  std::vector<uint32_t> succ;
  index.AppendSuccessors(n10, &succ);
  EXPECT_EQ(succ, std::vector<uint32_t>{n11});
  succ.clear();
  index.AppendSuccessors(n11, &succ);
  EXPECT_EQ(succ, (std::vector<uint32_t>{index.Node(0, 0), v30}));
  succ.clear();
  index.AppendSuccessors(index.Node(1, 0), &succ);  // 10v: a local sink
  EXPECT_TRUE(succ.empty());

  // Invalidation marks exactly the touched fragment dirty; a clean Ensure
  // is a no-op, a post-refresh Ensure rebuilds once.
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  index.InvalidateFragment(1);
  EXPECT_EQ(index.DirtySites(), std::vector<SiteId>{1});
  index.SetFragmentRows(1, F1Rows(/*forty_reaches_ten=*/true));
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 2u);
  EXPECT_TRUE(index.Reaches(n40, v30));  // 40 -> 10 -> 11 -> 30v
}

// An endpoint's whole sweep frame is a flag byte plus its component id(s):
// at most 1 + 2 * 5 varint bytes for every (s, t), whatever the boundary —
// for reach, and for rpq over random automata (comp(s, u_s), comp(t, u_t)).
TEST(BoundarySweepFrameTest, AtMostElevenBytesForEveryPair) {
  constexpr size_t kSites = 4, kLabels = 3;
  Rng rng(1213);
  for (const auto& partitioner : AllPartitioners()) {
    SCOPED_TRACE(partitioner->name());
    const size_t n = 60;
    const Graph g = ErdosRenyi(n, 4 * n, kLabels, &rng);
    const Fragmentation frag = Fragmentation::Build(
        g, partitioner->Partition(g, kSites, &rng), kSites);
    FragmentContextCache contexts(&frag);
    std::vector<CanonicalAutomaton> automata;
    automata.push_back(Canonicalize(QueryAutomaton::WildcardStar()));
    for (int i = 0; i < 2; ++i) {
      automata.push_back(Canonicalize(
          QueryAutomaton::FromRegex(Regex::Random(4, kLabels, &rng)).value()));
    }
    size_t max_reach = 0;
    size_t max_rpq = 0;
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        for (const SiteId site : {frag.site_of(s), frag.site_of(t)}) {
          const Fragment& f = frag.fragment(site);
          FragmentContext& ctx = contexts.Get(site);
          Encoder body;
          EncodeBoundarySweepFrame(f, &ctx, s, t, &body);
          max_reach = std::max(max_reach, body.size());
          for (const CanonicalAutomaton& a : automata) {
            Encoder rpq;
            EncodeRpqSweepFrame(
                f, &ctx, ctx.rpq_product(f, a.signature.key, a.automaton), s,
                t, &rpq);
            max_rpq = std::max(max_rpq, rpq.size());
          }
        }
      }
    }
    EXPECT_LE(max_reach, 11u);
    EXPECT_LE(max_rpq, 11u);
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: indexed answers == BES answers == oracle

TEST(BoundaryIndexDifferentialTest,
     MatchesBesAcrossPartitionersFormsAndEpochs) {
  constexpr size_t kSites = 4, kEpochs = 3, kQueriesPerEpoch = 40;
  constexpr uint64_t kSeed = 4242;
  Rng rng(kSeed);
  for (const auto& partitioner : AllPartitioners()) {
    for (const EquationForm form : kAllEquationForms) {
      const size_t n = 60 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
      const std::vector<SiteId> part = partitioner->Partition(g, kSites, &rng);
      IncrementalReachIndex index(g, part, kSites);
      EdgeWorld world = EdgeWorld::FromGraph(g);

      Cluster cluster(&index.fragmentation(), NetworkModel{});
      PartialEvalOptions bes_options;
      bes_options.form = form;
      PartialEvalEngine bes_engine(&cluster, bes_options);
      PartialEvalOptions idx_options;
      idx_options.form = form;
      idx_options.reach_path = ReachAnswerPath::kBoundaryIndex;
      PartialEvalEngine idx_engine(&cluster, idx_options);
      index.SetUpdateListener([&](SiteId site) {
        bes_engine.InvalidateFragment(site);
        idx_engine.InvalidateFragment(site);
      });

      for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const Graph oracle = world.Build();
        std::vector<Query> batch;
        for (size_t q = 0; q < kQueriesPerEpoch; ++q) {
          batch.push_back(
              Query::Reach(static_cast<NodeId>(rng.Uniform(n)),
                           static_cast<NodeId>(rng.Uniform(n))));
        }
        const BatchAnswer bes = bes_engine.EvaluateBatch(batch);
        const BatchAnswer indexed = idx_engine.EvaluateBatch(batch);
        for (size_t q = 0; q < batch.size(); ++q) {
          const bool expected =
              CentralizedReach(oracle, batch[q].source, batch[q].target);
          ASSERT_EQ(bes.answers[q].reachable, expected)
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].reachable, expected)
              << "boundary index diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
        }

        // Interleave an update epoch: a couple of random edges through the
        // incremental index, invalidating both engines via the listener.
        index.AddEdges(world.AddRandomEdges(3, &rng));
      }
      index.SetUpdateListener(nullptr);

      // The index path actually ran through the label structure, and
      // rebuilt at most once per dirty epoch.
      const BoundaryReachIndex* boundary = idx_engine.boundary_index();
      ASSERT_NE(boundary, nullptr);
      EXPECT_GT(boundary->label_hits() + boundary->dfs_fallbacks(), 0u);
      EXPECT_LE(boundary->rebuild_count(), kEpochs);
    }
  }
}

// Lazy dirty-portion rebuilds: a second batch in the same epoch must not
// rebuild, an update must dirty only the touched fragments, and the next
// batch refreshes exactly those.
TEST(BoundaryIndexDifferentialTest, RebuildsLazilyAndOnlyWhenDirty) {
  Rng rng(99);
  const size_t n = 80, kSites = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  IncrementalReachIndex index(g, part, kSites);

  Cluster cluster(&index.fragmentation(), NetworkModel{});
  PartialEvalOptions options;
  options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);
  index.SetUpdateListener(
      [&](SiteId site) { engine.InvalidateFragment(site); });

  std::vector<Query> batch;
  for (size_t q = 0; q < 16; ++q) {
    batch.push_back(Query::Reach(static_cast<NodeId>(rng.Uniform(n)),
                                 static_cast<NodeId>(rng.Uniform(n))));
  }
  engine.EvaluateBatch(batch);
  const BoundaryReachIndex* boundary = engine.boundary_index();
  ASSERT_NE(boundary, nullptr);
  EXPECT_EQ(boundary->rebuild_count(), 1u);
  engine.EvaluateBatch(batch);
  EXPECT_EQ(boundary->rebuild_count(), 1u);  // warm: no refresh round

  // An intra-fragment edge dirties exactly one fragment.
  NodeId u = 0, v = 0;
  for (NodeId a = 0; a < n && u == v; ++a) {
    for (NodeId b = a + 1; b < n; ++b) {
      if (part[a] == part[b]) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_NE(u, v);
  index.AddEdge(u, v);
  EXPECT_EQ(boundary->DirtySites(), std::vector<SiteId>{part[u]});
  engine.EvaluateBatch(batch);
  EXPECT_EQ(boundary->rebuild_count(), 2u);
  EXPECT_TRUE(boundary->DirtySites().empty());
}

// Mixed-class batches: with reach indexed, reach queries take the boundary
// path while dist/rpq ride the equation broadcast of the same
// EvaluateBatch; with all three classes indexed, the whole batch shares one
// refresh round and one sweep round. Answers must agree with the all-BES
// engine and the centralized oracle for every class, and the all-indexed
// batch costs at most two rounds and two visits per site, cold and warm.
TEST(BoundaryIndexDifferentialTest, MixedClassBatchesAgreeWithBes) {
  Rng rng(31337);
  const size_t n = 70, kSites = 4, kLabels = 3;
  const Graph g = ErdosRenyi(n, 3 * n, kLabels, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine bes_engine(&cluster);
  PartialEvalOptions reach_options;
  reach_options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine reach_engine(&cluster, reach_options);
  PartialEvalOptions all_options = reach_options;
  all_options.dist_path = DistAnswerPath::kBoundaryIndex;
  all_options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  PartialEvalEngine all_engine(&cluster, all_options);

  std::vector<Query> batch;
  for (size_t q = 0; q < 30; ++q) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(n));
    const NodeId t = static_cast<NodeId>(rng.Uniform(n));
    switch (rng.Uniform(3)) {
      case 0:
        batch.push_back(Query::Reach(s, t));
        break;
      case 1:
        batch.push_back(
            Query::Dist(s, t, static_cast<uint32_t>(1 + rng.Uniform(6))));
        break;
      default:
        batch.push_back(Query::Rpq(
            s, t,
            QueryAutomaton::FromRegex(Regex::Random(3, kLabels, &rng))
                .value()));
    }
  }
  const BatchAnswer expected = bes_engine.EvaluateBatch(batch);
  for (const char* warmth : {"cold", "warm"}) {
    const BatchAnswer all = all_engine.EvaluateBatch(batch);
    ASSERT_TRUE(all.status.ok()) << all.status.ToString();
    EXPECT_LE(all.metrics.rounds, 2u) << warmth;
    for (size_t i = 0; i < kSites; ++i) {
      EXPECT_LE(all.metrics.site_visits[i], 2u) << warmth << " site " << i;
    }
    const BatchAnswer reach = reach_engine.EvaluateBatch(batch);
    for (size_t q = 0; q < batch.size(); ++q) {
      const Query& query = batch[q];
      bool oracle = false;
      switch (query.kind) {
        case QueryKind::kReach:
          oracle = CentralizedReach(g, query.source, query.target);
          break;
        case QueryKind::kDist:
          oracle = CentralizedDistance(g, query.source, query.target) <=
                   query.bound;
          break;
        case QueryKind::kRpq:
          oracle = CentralizedRegularReach(g, query.source, query.target,
                                           *query.automaton);
          break;
      }
      for (const BatchAnswer* actual : {&reach, &all}) {
        EXPECT_EQ(actual->answers[q].reachable, expected.answers[q].reachable)
            << warmth << " kind=" << static_cast<int>(query.kind)
            << " s=" << query.source << " t=" << query.target;
        EXPECT_EQ(actual->answers[q].reachable, oracle) << warmth;
        if (query.kind == QueryKind::kDist) {
          EXPECT_EQ(actual->answers[q].distance, expected.answers[q].distance)
              << warmth;
        }
      }
    }
  }
}

// Degenerate fragmentations: a single site (no boundary at all) and as many
// sites as nodes (everything is boundary).
TEST(BoundaryIndexDifferentialTest, DegenerateFragmentCounts) {
  Rng rng(17);
  const size_t n = 30;
  const Graph g = ErdosRenyi(n, 2 * n, 2, &rng);
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
    options.reach_path = ReachAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    for (int q = 0; q < 60; ++q) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      EXPECT_EQ(engine.Evaluate(Query::Reach(s, t)).reachable,
                CentralizedReach(g, s, t))
          << "k=" << k << " s=" << s << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace pereach
