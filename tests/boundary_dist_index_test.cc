// Differential suite for the coordinator's dist index over the fragments'
// glued local graphs: the kBoundaryIndex dist path must agree bit-for-bit
// with the paper's min-plus BES assembling path (and with a centralized
// oracle) across partitioners, equation forms, and interleaved AddEdges
// epochs. Both paths report the distance only within the bound, and
// kInfWeight above it. Plus dist-specific edge cases: unreachable pairs,
// s == t, boundary-node endpoints, degenerate fragment counts, lazy
// rebuilds.

#include "src/index/boundary_dist_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
#include "src/engine/baseline_engines.h"
#include "src/engine/partial_eval_engine.h"
#include "src/graph/generators.h"
#include "src/net/cluster.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::AllPartitioners;
using testing_util::DiffContext;
using testing_util::EdgeWorld;
using testing_util::kAllEquationForms;
using testing_util::OracleDistance;
using testing_util::RandomPartition;

// ---------------------------------------------------------------------------
// Direct index semantics on two hand-built local graphs

// F0 stores 10 -> 11 and the cross edge 11 -> 20 (virtual 20 is its local
// node 2); F1 stores the chain 20 -> 21 -> 22 and the cross edge 22 -> 10
// (virtual 10 is its local node 3). Node ids: F0's local v is v, F1's is
// 3 + v.
BoundaryRows HandBuiltF0() {
  BoundaryRows rows;
  rows.offsets = {0, 1, 2, 2};
  rows.targets = {1, 2};
  rows.oset_keys = {20};
  rows.oset_comp = {2};
  rows.in_keys = {10};
  rows.in_comp = {0};
  return rows;
}

BoundaryRows HandBuiltF1() {
  BoundaryRows rows;
  rows.offsets = {0, 1, 2, 3, 3};
  rows.targets = {1, 2, 3};
  rows.oset_keys = {10};
  rows.oset_comp = {3};
  rows.in_keys = {20};
  rows.in_comp = {0};
  return rows;
}

TEST(BoundaryDistIndexTest, HandBuiltGraphAnswersAndInvalidates) {
  BoundaryDistIndex index(2);
  EXPECT_EQ(index.DirtySites().size(), 2u);
  index.SetFragmentRows(0, HandBuiltF0());
  index.SetFragmentRows(1, HandBuiltF1());
  EXPECT_TRUE(index.DirtySites().empty());
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  EXPECT_EQ(index.num_nodes(), 7u);  // both virtual copies included
  EXPECT_EQ(index.num_edges(), 5u);  // one per edge of G
  EXPECT_EQ(index.Node(0, 3), BoundaryDistIndex::kNoNode);
  EXPECT_EQ(index.Node(1, 4), BoundaryDistIndex::kNoNode);

  const uint32_t n10 = index.Node(0, 0);
  const uint32_t n11 = index.Node(0, 1);
  const uint32_t n20 = index.Node(1, 0);
  const uint32_t n22 = index.Node(1, 2);
  // The cross edge 11 -> 20 lands on 20's real copy as ONE hop: a glue
  // edge through the virtual copy would make it two.
  EXPECT_EQ(index.Distance(n11, n20, 1), 1u);
  EXPECT_EQ(index.Distance(n11, n20, 0), kInfWeight);
  // The virtual copy itself is an isolated node.
  EXPECT_EQ(index.Distance(n10, index.Node(0, 2), kInfDistance), kInfWeight);
  EXPECT_EQ(index.Distance(n10, n10, 0), 0u);

  // 10 -> 11 -> 20 -> 21 -> 22 is 4 hops: reported at bounds l and l + 1
  // and unbounded, kInfWeight at l - 1.
  EXPECT_EQ(index.Distance(n10, n22, 3), kInfWeight);
  EXPECT_EQ(index.Distance(n10, n22, 4), 4u);
  EXPECT_EQ(index.Distance(n10, n22, 5), 4u);
  EXPECT_EQ(index.Distance(n10, n22, kInfDistance), 4u);
  // 22 -> 10 -> 11 crosses back; 11 -> 10 goes round through F1.
  EXPECT_EQ(index.Distance(n22, n11, 2), 2u);
  EXPECT_EQ(index.Distance(n11, n10, kInfDistance), 4u);
  const size_t searches = index.search_count();
  EXPECT_GT(index.settled_nodes(), 0u);

  // Invalidation marks exactly the touched fragment dirty; a clean Ensure
  // is a no-op, a post-refresh Ensure rebuilds once.
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  index.InvalidateFragment(1);
  EXPECT_EQ(index.DirtySites(), std::vector<SiteId>{1});
  EXPECT_TRUE(index.dirty());
  BoundaryRows f1 = HandBuiltF1();
  f1.offsets = {0, 2, 3, 4, 4};
  f1.targets = {1, 2, 2, 3};  // adds the shortcut 20 -> 22
  index.SetFragmentRows(1, std::move(f1));
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 2u);
  EXPECT_EQ(index.Distance(n10, n22, 3), 3u);  // 10 -> 11 -> 20 -> 22
  EXPECT_EQ(index.Distance(n10, n22, 2), kInfWeight);
  EXPECT_EQ(index.search_count(), searches + 2);
}

// ---------------------------------------------------------------------------
// Dist rows against the local graph

// A fragment's dist rows are its local graph: node v is component v, its
// successors ascending and deduplicated, the oset table the fragment's
// virtual nodes and the in-table its in-nodes, keyed by global id.
TEST(DistRowsTest, EqualTheLocalGraph) {
  constexpr size_t kSites = 3;
  Rng rng(7207);
  for (const auto& partitioner : AllPartitioners()) {
    for (int trial = 0; trial < 4; ++trial) {
      const size_t n = 12 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 2 * n + rng.Uniform(n), 1, &rng);
      const Fragmentation frag = Fragmentation::Build(
          g, partitioner->Partition(g, kSites, &rng), kSites);
      for (SiteId site = 0; site < kSites; ++site) {
        SCOPED_TRACE(partitioner->name() + " trial " + std::to_string(trial) +
                     " site " + std::to_string(site));
        const Fragment& f = frag.fragment(site);
        const Graph& local = f.local_graph();
        FragmentContext ctx;
        const BoundaryRows rows = ctx.dist_rows(f);
        ASSERT_EQ(rows.num_components(), local.NumNodes());
        for (NodeId v = 0; v < local.NumNodes(); ++v) {
          std::vector<uint32_t> want(local.OutNeighbors(v).begin(),
                                     local.OutNeighbors(v).end());
          std::sort(want.begin(), want.end());
          want.erase(std::unique(want.begin(), want.end()), want.end());
          const std::vector<uint32_t> got(
              rows.targets.begin() + static_cast<ptrdiff_t>(rows.offsets[v]),
              rows.targets.begin() +
                  static_cast<ptrdiff_t>(rows.offsets[v + 1]));
          EXPECT_EQ(got, want) << "node " << f.ToGlobal(v);
        }
        const std::vector<NodeId>& oset = ctx.oset_globals(f);
        EXPECT_EQ(rows.oset_keys,
                  std::vector<uint64_t>(oset.begin(), oset.end()));
        EXPECT_EQ(rows.oset_comp,
                  std::vector<uint32_t>(ctx.oset_locals(f).begin(),
                                        ctx.oset_locals(f).end()));
        ASSERT_EQ(rows.in_keys.size(), f.in_nodes().size());
        for (size_t i = 0; i < f.in_nodes().size(); ++i) {
          EXPECT_EQ(rows.in_keys[i], f.ToGlobal(f.in_nodes()[i]));
          EXPECT_EQ(rows.in_comp[i], f.in_nodes()[i]);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: indexed answers == BES answers == oracle

/// Bounds 1..10, plus kInfDistance one time in five: an unbounded query
/// must not let a site's "unreached" marker pass as a distance.
uint32_t RandomBound(Rng* rng) {
  return rng->Bernoulli(0.2) ? kInfDistance
                             : static_cast<uint32_t>(1 + rng->Uniform(10));
}

std::vector<Query> RandomDistBatch(size_t n, size_t count, Rng* rng) {
  std::vector<Query> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const NodeId s = static_cast<NodeId>(rng->Uniform(n));
    const NodeId t = static_cast<NodeId>(rng->Uniform(n));
    batch.push_back(Query::Dist(s, t, RandomBound(rng)));
  }
  return batch;
}

TEST(BoundaryDistDifferentialTest,
     MatchesBesAcrossPartitionersFormsAndEpochs) {
  constexpr size_t kSites = 4, kEpochs = 3, kQueriesPerEpoch = 40;
  constexpr uint64_t kSeed = 24242;
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
      idx_options.dist_path = DistAnswerPath::kBoundaryIndex;
      PartialEvalEngine idx_engine(&cluster, idx_options);
      index.SetUpdateListener([&](SiteId site) {
        bes_engine.InvalidateFragment(site);
        idx_engine.InvalidateFragment(site);
      });

      for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
        const Graph oracle = world.Build();
        const std::vector<Query> batch = RandomDistBatch(n, kQueriesPerEpoch,
                                                         &rng);
        const BatchAnswer bes = bes_engine.EvaluateBatch(batch);
        const BatchAnswer indexed = idx_engine.EvaluateBatch(batch);
        for (size_t q = 0; q < batch.size(); ++q) {
          const uint64_t true_dist =
              OracleDistance(oracle, batch[q].source, batch[q].target);
          const bool expected =
              true_dist != kInfWeight && true_dist <= batch[q].bound;
          ASSERT_EQ(bes.answers[q].reachable, expected)
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          // Bit-identical to the BES path: the distance within the bound,
          // kInfWeight above it.
          ASSERT_EQ(indexed.answers[q].reachable, expected)
              << "dist index diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].distance, bes.answers[q].distance)
              << "dist index distance diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].distance,
                    expected ? true_dist : kInfWeight)
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
        }
        index.AddEdges(world.AddRandomEdges(3, &rng));
      }
      index.SetUpdateListener(nullptr);

      // The index path really ran (and stayed within one rebuild per dirty
      // epoch).
      const BoundaryDistIndex* boundary = idx_engine.boundary_dist_index();
      ASSERT_NE(boundary, nullptr);
      EXPECT_GT(boundary->search_count(), 0u);
      EXPECT_LE(boundary->rebuild_count(), kEpochs);
    }
  }
}

// Unreachable pairs must come back as kInfWeight (and unreachable) on BOTH
// answer paths: two disjoint halves, queries across the gap.
TEST(BoundaryDistDifferentialTest, UnreachablePairsAreInfinityOnBothPaths) {
  Rng rng(5150);
  const size_t half = 20, n = 2 * half, kSites = 4;
  GraphBuilder b;
  b.AddNodes(n);
  for (size_t e = 0; e < 3 * half; ++e) {
    // Edges only within each half; nothing crosses the gap.
    b.AddEdge(static_cast<NodeId>(rng.Uniform(half)),
              static_cast<NodeId>(rng.Uniform(half)));
    b.AddEdge(static_cast<NodeId>(half + rng.Uniform(half)),
              static_cast<NodeId>(half + rng.Uniform(half)));
  }
  const Graph g = std::move(b).Build();
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine bes_engine(&cluster);
  PartialEvalOptions idx_options;
  idx_options.dist_path = DistAnswerPath::kBoundaryIndex;
  PartialEvalEngine idx_engine(&cluster, idx_options);

  for (int i = 0; i < 30; ++i) {
    const NodeId s = static_cast<NodeId>(rng.Uniform(half));
    const NodeId t = static_cast<NodeId>(half + rng.Uniform(half));
    const Query q = Query::Dist(s, t, RandomBound(&rng));
    const QueryAnswer bes = bes_engine.Evaluate(q);
    const QueryAnswer idx = idx_engine.Evaluate(q);
    ASSERT_EQ(bes.distance, kInfWeight) << "s=" << s << " t=" << t;
    ASSERT_EQ(idx.distance, kInfWeight) << "s=" << s << " t=" << t;
    ASSERT_FALSE(bes.reachable);
    ASSERT_FALSE(idx.reachable);
  }
}

// The QueryAnswer::distance contract on every engine that fills it: a chain
// one hop longer than the bound, crossing a fragment boundary at every hop,
// is unreachable with distance kInfWeight on the BES path, the indexed path
// and the ship-all engine; one hop more of bound reports the chain.
TEST(BoundaryDistDifferentialTest, ChainOneHopPastTheBoundIsInfinite) {
  constexpr size_t kSites = 3;
  constexpr uint32_t kBound = 5;
  const size_t n = kBound + 2;  // kBound + 1 hops from 0 to n - 1
  std::vector<std::pair<NodeId, NodeId>> chain;
  std::vector<SiteId> part(n);
  for (NodeId v = 0; v < n; ++v) {
    if (v + 1 < n) chain.emplace_back(v, v + 1);
    part[v] = static_cast<SiteId>(v % kSites);
  }
  const Graph g = testing_util::MakeGraph(n, chain);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine bes_engine(&cluster);
  PartialEvalOptions idx_options;
  idx_options.dist_path = DistAnswerPath::kBoundaryIndex;
  PartialEvalEngine idx_engine(&cluster, idx_options);
  NaiveShipAllEngine ship_all(&cluster);

  const NodeId s = 0;
  const NodeId t = static_cast<NodeId>(n - 1);
  for (QueryEngine* engine :
       std::initializer_list<QueryEngine*>{&bes_engine, &idx_engine,
                                           &ship_all}) {
    SCOPED_TRACE(engine == &bes_engine   ? "bes"
                 : engine == &idx_engine ? "indexed"
                                         : "ship-all");
    const QueryAnswer above = engine->Evaluate(Query::Dist(s, t, kBound));
    EXPECT_FALSE(above.reachable);
    EXPECT_EQ(above.distance, kInfWeight);
    const QueryAnswer within = engine->Evaluate(Query::Dist(s, t, kBound + 1));
    EXPECT_TRUE(within.reachable);
    EXPECT_EQ(within.distance, kBound + 1);
  }
}

// s == t is the trivial coordinator answer on both paths, and endpoints that
// are themselves boundary nodes (in-nodes / virtual nodes) must agree with
// the BES path and the oracle.
TEST(BoundaryDistDifferentialTest, SourceEqualsTargetAndBoundaryEndpoints) {
  Rng rng(929);
  const size_t n = 70, kSites = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, kSites);
  Cluster cluster(&frag, NetworkModel{});
  PartialEvalEngine bes_engine(&cluster);
  PartialEvalOptions idx_options;
  idx_options.dist_path = DistAnswerPath::kBoundaryIndex;
  PartialEvalEngine idx_engine(&cluster, idx_options);

  // All boundary nodes of the fragmentation, as globals.
  std::vector<NodeId> boundary;
  for (SiteId s = 0; s < frag.num_fragments(); ++s) {
    const Fragment& f = frag.fragment(s);
    for (NodeId in : f.in_nodes()) boundary.push_back(f.ToGlobal(in));
  }
  ASSERT_FALSE(boundary.empty());

  // s == t: distance 0 at any bound, no site visit needed.
  for (const NodeId v :
       {boundary.front(), static_cast<NodeId>(rng.Uniform(n))}) {
    const QueryAnswer idx = idx_engine.Evaluate(Query::Dist(v, v, 0));
    EXPECT_TRUE(idx.reachable);
    EXPECT_EQ(idx.distance, 0u);
  }

  const Graph oracle = EdgeWorld::FromGraph(g).Build();
  for (int i = 0; i < 60; ++i) {
    // Half the probes pair two boundary nodes; half mix a boundary node
    // with a uniform endpoint.
    NodeId s = boundary[rng.Uniform(boundary.size())];
    NodeId t = boundary[rng.Uniform(boundary.size())];
    if (i % 2 == 0) {
      (i % 4 == 0 ? s : t) = static_cast<NodeId>(rng.Uniform(n));
    }
    const Query q = Query::Dist(s, t, RandomBound(&rng));
    const QueryAnswer bes = bes_engine.Evaluate(q);
    const QueryAnswer idx = idx_engine.Evaluate(q);
    ASSERT_EQ(idx.distance, bes.distance) << "s=" << s << " t=" << t
                                          << " bound=" << q.bound;
    ASSERT_EQ(idx.reachable, bes.reachable) << "s=" << s << " t=" << t;
    const uint64_t true_dist = OracleDistance(oracle, s, t);
    ASSERT_EQ(idx.distance, true_dist <= q.bound ? true_dist : kInfWeight)
        << "s=" << s << " t=" << t;
  }
}

// Degenerate fragmentations: a single site (no boundary at all, the one
// local graph answers everything) and as many sites as nodes (every node is
// boundary, every edge a cross edge).
TEST(BoundaryDistDifferentialTest, DegenerateFragmentCounts) {
  Rng rng(18);
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
    options.dist_path = DistAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    for (int i = 0; i < 60; ++i) {
      const NodeId s = static_cast<NodeId>(rng.Uniform(n));
      const NodeId t = static_cast<NodeId>(rng.Uniform(n));
      const uint32_t bound = RandomBound(&rng);
      const QueryAnswer idx = engine.Evaluate(Query::Dist(s, t, bound));
      const uint64_t true_dist = OracleDistance(g, s, t);
      ASSERT_EQ(idx.reachable, true_dist != kInfWeight && true_dist <= bound)
          << "k=" << k << " s=" << s << " t=" << t << " bound=" << bound;
      ASSERT_EQ(idx.distance, idx.reachable ? true_dist : kInfWeight)
          << "k=" << k << " s=" << s << " t=" << t;
    }
  }
}

// Lazy dirty-portion rebuilds: a second batch in the same epoch must not
// rebuild, an update must dirty only the touched fragments, and the next
// batch refreshes exactly those — rebuild_count advances on dirty epochs
// only.
TEST(BoundaryDistDifferentialTest, RebuildsLazilyAndOnlyWhenDirty) {
  Rng rng(99);
  const size_t n = 80, kSites = 4;
  const Graph g = ErdosRenyi(n, 3 * n, 2, &rng);
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  IncrementalReachIndex index(g, part, kSites);

  Cluster cluster(&index.fragmentation(), NetworkModel{});
  PartialEvalOptions options;
  options.dist_path = DistAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);
  index.SetUpdateListener(
      [&](SiteId site) { engine.InvalidateFragment(site); });

  const std::vector<Query> batch = RandomDistBatch(n, 16, &rng);
  engine.EvaluateBatch(batch);
  const BoundaryDistIndex* boundary = engine.boundary_dist_index();
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

}  // namespace
}  // namespace pereach
