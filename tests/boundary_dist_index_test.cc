// Differential suite for the coordinator's weighted boundary-graph dist
// index: the kBoundaryIndex dist path must agree bit-for-bit with the
// paper's min-plus BES assembling path (and with a centralized oracle)
// across partitioners, equation forms, and interleaved AddEdges epochs —
// including the above-bound distance values the BES Dijkstra reports, which
// the indexed search reproduces by filtering standing edges at the query
// bound. Plus dist-specific edge cases: unreachable pairs, s == t,
// boundary-node endpoints, degenerate fragment counts, lazy rebuilds.

#include "src/index/boundary_dist_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
#include "src/engine/partial_eval_engine.h"
#include "src/engine/site_runtime.h"
#include "src/graph/algorithms.h"
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
// WeightedBoundaryRows wire format

TEST(WeightedBoundaryRowsTest, SerializeRoundTrips) {
  WeightedBoundaryRows rows;
  rows.oset_globals = {3, 9, 40, 77};
  rows.in_globals = {12, 25, 14};
  rows.offsets = {0, 3, 3, 5};  // in-node 25's row is empty
  rows.targets = {0, 2, 3, 1, 3};
  rows.hops = {2, 7, 1, 4, 130};

  Encoder enc;
  rows.Serialize(&enc);
  Decoder dec(enc.buffer());
  const WeightedBoundaryRows back = WeightedBoundaryRows::Deserialize(&dec);
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(back.oset_globals, rows.oset_globals);
  EXPECT_EQ(back.in_globals, rows.in_globals);
  EXPECT_EQ(back.offsets, rows.offsets);
  EXPECT_EQ(back.targets, rows.targets);
  EXPECT_EQ(back.hops, rows.hops);
}

// ---------------------------------------------------------------------------
// Direct index semantics on a hand-built weighted boundary graph

// Two fragments: F0's in-node 10 reaches virtual 20 at 2 hops and virtual 30
// at 5; F1's in-nodes 20 and 30 both reach virtual 10 at 3 hops (identical
// rows, each its own) and in-node 40 reaches nothing.
TEST(BoundaryDistIndexTest, HandBuiltGraphAnswersAndInvalidates) {
  BoundaryDistIndex index(2);
  EXPECT_EQ(index.DirtySites().size(), 2u);

  WeightedBoundaryRows f0;
  f0.oset_globals = {20, 30};
  f0.in_globals = {10};
  f0.offsets = {0, 2};
  f0.targets = {0, 1};
  f0.hops = {2, 5};
  index.SetFragmentRows(0, std::move(f0));

  WeightedBoundaryRows f1;
  f1.oset_globals = {10};
  f1.in_globals = {20, 30, 40};
  f1.offsets = {0, 1, 2, 2};
  f1.targets = {0, 0};
  f1.hops = {3, 3};
  index.SetFragmentRows(1, std::move(f1));

  EXPECT_TRUE(index.DirtySites().empty());
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  EXPECT_EQ(index.num_boundary_nodes(), 4u);  // 10, 20, 30, 40
  EXPECT_EQ(index.InNode(77), BoundaryDistIndex::kNoNode);

  const auto path = [&index](NodeId u, NodeId v, uint32_t max_edge) {
    const BoundaryDistIndex::Seed s[] = {{index.InNode(u), 0}};
    const BoundaryDistIndex::Seed t[] = {{index.InNode(v), 0}};
    return index.ShortestPath(s, t, max_edge);
  };
  EXPECT_EQ(path(10, 10, 100), 0u);  // seeds meet at the same node
  EXPECT_EQ(path(10, 20, 100), 2u);
  EXPECT_EQ(path(10, 30, 100), 5u);
  EXPECT_EQ(path(20, 10, 100), 3u);
  EXPECT_EQ(path(30, 10, 100), 3u);
  EXPECT_EQ(path(20, 30, 100), 3u + 5u);  // 20 -> 10 -> 30
  EXPECT_EQ(path(40, 10, 100), kInfWeight);
  EXPECT_EQ(path(10, 40, 100), kInfWeight);
  // The per-query bound filter drops heavy standing edges.
  EXPECT_EQ(path(10, 20, 2), 2u);
  EXPECT_EQ(path(10, 30, 4), kInfWeight);
  EXPECT_EQ(path(20, 30, 4), kInfWeight);  // the 5-hop closing edge is out

  // Seed distances add onto the path, and the minimum over seed pairs wins.
  const BoundaryDistIndex::Seed multi_s[] = {{index.InNode(10), 7},
                                             {index.InNode(40), 0}};
  const BoundaryDistIndex::Seed multi_t[] = {{index.InNode(20), 1}};
  EXPECT_EQ(index.ShortestPath(multi_s, multi_t, 100), 7u + 2u + 1u);

  // Invalidation marks exactly the touched fragment dirty; a clean Ensure
  // is a no-op, a post-refresh Ensure rebuilds once.
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 1u);
  index.InvalidateFragment(1);
  EXPECT_EQ(index.DirtySites(), std::vector<SiteId>{1});
  WeightedBoundaryRows f1b;
  f1b.oset_globals = {10};
  f1b.in_globals = {20, 30, 40};
  f1b.offsets = {0, 1, 2, 3};
  f1b.targets = {0, 0, 0};
  f1b.hops = {3, 3, 1};  // 40 now reaches virtual 10 in one hop
  index.SetFragmentRows(1, std::move(f1b));
  index.Ensure();
  EXPECT_EQ(index.rebuild_count(), 2u);
  EXPECT_EQ(path(40, 30, 100), 1u + 5u);  // 40 -> 10 -> 30
}

// ---------------------------------------------------------------------------
// Dist rows against a local all-pairs oracle

// Every in-node's row lists exactly its finite local distances to the
// virtual nodes, ascending by oset index: AllPairsDistances restricted to
// (in-node, virtual node) pairs.
TEST(DistRowsTest, MatchLocalAllPairsDistances) {
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
        FragmentContext ctx;
        const std::vector<std::vector<uint32_t>> apd =
            AllPairsDistances(f.local_graph());
        const std::vector<NodeId>& oset_locals = ctx.oset_locals(f);
        const FragmentContext::DistRows& rows = ctx.dist_rows(f);
        EXPECT_EQ(rows.oset_globals, ctx.oset_globals(f));
        ASSERT_EQ(rows.in_globals.size(), f.in_nodes().size());
        ASSERT_EQ(rows.offsets.size(), f.in_nodes().size() + 1);
        for (size_t i = 0; i < f.in_nodes().size(); ++i) {
          const NodeId in = f.in_nodes()[i];
          EXPECT_EQ(rows.in_globals[i], f.ToGlobal(in));
          std::vector<std::pair<uint32_t, uint32_t>> want, got;
          for (uint32_t j = 0; j < oset_locals.size(); ++j) {
            const uint32_t d = apd[in][oset_locals[j]];
            if (d != kInfDistance) want.emplace_back(j, d);
          }
          for (size_t e = rows.offsets[i]; e < rows.offsets[i + 1]; ++e) {
            got.emplace_back(rows.targets[e], rows.hops[e]);
          }
          EXPECT_EQ(got, want) << "in-node " << f.ToGlobal(in);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Endpoint sweep frames against a local all-pairs oracle

/// A dist sweep frame, decoded.
struct DecodedDistFrame {
  uint8_t flags = 0;
  uint32_t local_hops = kInfDistance;
  std::vector<std::pair<uint32_t, uint32_t>> s_out;  // (oset index, hops)
  std::vector<std::pair<NodeId, uint32_t>> t_in;     // (in-node global, hops)
};

DecodedDistFrame DecodeDistFrame(const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  DecodedDistFrame out;
  out.flags = dec.GetU8();
  if (out.flags & kFrameHasLocalDist) {
    out.local_hops = static_cast<uint32_t>(dec.GetVarint());
  }
  if (out.flags & kFrameHasS) {
    uint32_t prev = 0;
    for (size_t n = dec.GetCount(2); n > 0; --n) {
      prev += static_cast<uint32_t>(dec.GetVarint());
      out.s_out.emplace_back(prev, static_cast<uint32_t>(dec.GetVarint()));
    }
  }
  if (out.flags & kFrameHasT) {
    for (size_t n = dec.GetCount(2); n > 0; --n) {
      const NodeId global = static_cast<NodeId>(dec.GetVarint());
      out.t_in.emplace_back(global, static_cast<uint32_t>(dec.GetVarint()));
    }
  }
  EXPECT_TRUE(dec.Done());
  return out;
}

// Every pair a frame carries — s-side exits, the local short-circuit, t-side
// entries — equals the local graph's all-pairs distances within the bound,
// in ascending oset-index / in-node order, for every bound including 0 and
// kInfDistance (where "within the bound" must still exclude unreached
// nodes). Endpoints cover both stored here, one side only, t's virtual copy
// here, and neither.
TEST(DistSweepFrameTest, MatchesLocalAllPairsDistances) {
  constexpr size_t kSites = 3;
  Rng rng(6011);
  std::vector<uint32_t> bounds;
  for (uint32_t b = 0; b <= 12; ++b) bounds.push_back(b);
  bounds.push_back(kInfDistance);
  const auto within = [](uint32_t d, uint32_t bound) {
    return d != kInfDistance && d <= bound;
  };
  for (const auto& partitioner : AllPartitioners()) {
    for (int trial = 0; trial < 4; ++trial) {
      const size_t n = 12 + rng.Uniform(30);
      const Graph g = ErdosRenyi(n, 2 * n + rng.Uniform(n), 1, &rng);
      const Fragmentation frag = Fragmentation::Build(
          g, partitioner->Partition(g, kSites, &rng), kSites);
      for (SiteId site = 0; site < kSites; ++site) {
        const Fragment& f = frag.fragment(site);
        FragmentContext ctx;
        const std::vector<std::vector<uint32_t>> apd =
            AllPairsDistances(f.local_graph());
        const std::vector<NodeId>& oset_locals = ctx.oset_locals(f);
        const std::vector<NodeId>& oset_globals = ctx.oset_globals(f);
        for (int probe = 0; probe < 12; ++probe) {
          const NodeId s = static_cast<NodeId>(rng.Uniform(n));
          NodeId t = static_cast<NodeId>(rng.Uniform(n));
          if (probe % 4 == 0 && !oset_globals.empty()) {
            t = oset_globals[rng.Uniform(oset_globals.size())];
          }
          const bool s_here = f.Contains(s);
          const bool t_here = f.Contains(t);
          for (const uint32_t bound : bounds) {
            const std::string where = partitioner->name() + " trial " +
                                      std::to_string(trial) + " site " +
                                      std::to_string(site) + " s=" +
                                      std::to_string(s) + " t=" +
                                      std::to_string(t) + " bound=" +
                                      std::to_string(bound);
            Encoder body;
            EncodeDistSweepFrame(f, &ctx, s, t, bound, &body);
            const DecodedDistFrame got = DecodeDistFrame(body.buffer());

            DecodedDistFrame want;
            if (s_here) want.flags |= kFrameHasS;
            if (t_here) want.flags |= kFrameHasT;
            if (s_here) {
              const std::vector<uint32_t>& from_s = apd[f.ToLocal(s)];
              if (t_here && within(from_s[f.ToLocal(t)], bound)) {
                want.local_hops = from_s[f.ToLocal(t)];
              }
              for (uint32_t j = 0; j < oset_locals.size(); ++j) {
                const uint32_t d = from_s[oset_locals[j]];
                if (!within(d, bound)) continue;
                if (oset_globals[j] == t) {
                  want.local_hops = std::min(want.local_hops, d);
                } else {
                  want.s_out.emplace_back(j, d);
                }
              }
            }
            if (t_here) {
              for (const NodeId in : f.in_nodes()) {
                const uint32_t d = apd[in][f.ToLocal(t)];
                if (!within(d, bound)) continue;
                want.t_in.emplace_back(f.ToGlobal(in), d);
              }
            }
            if (want.local_hops != kInfDistance) {
              want.flags |= kFrameHasLocalDist;
            }

            ASSERT_EQ(got.flags, want.flags) << where;
            EXPECT_EQ(got.local_hops, want.local_hops) << where;
            EXPECT_EQ(got.s_out, want.s_out) << where;
            EXPECT_EQ(got.t_in, want.t_in) << where;
          }
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
          // Bit-identical to the BES path, including distance values above
          // the bound (both report the min over segment-bounded routes).
          ASSERT_EQ(indexed.answers[q].reachable, expected)
              << "dist index diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          ASSERT_EQ(indexed.answers[q].distance, bes.answers[q].distance)
              << "dist index distance diverged: "
              << DiffContext(kSeed, partitioner->name(), form, epoch,
                             batch[q]);
          if (expected) {
            ASSERT_EQ(indexed.answers[q].distance, true_dist)
                << DiffContext(kSeed, partitioner->name(), form, epoch,
                               batch[q]);
          }
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

// s == t is the trivial coordinator answer on both paths, and endpoints that
// are themselves boundary nodes (in-nodes / virtual nodes) must agree with
// the BES path and the oracle — the seeds then name standing graph nodes
// directly (entry distance 0 / exit distance 0).
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
    if (true_dist != kInfWeight && true_dist <= q.bound) {
      ASSERT_EQ(idx.distance, true_dist) << "s=" << s << " t=" << t;
    }
  }
}

// Degenerate fragmentations: a single site (no boundary graph at all, the
// local short-circuit answers everything) and as many sites as nodes
// (every node is boundary, every local segment is one cross edge).
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
      if (idx.reachable) {
        ASSERT_EQ(idx.distance, true_dist) << "k=" << k << " s=" << s
                                           << " t=" << t;
      }
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
