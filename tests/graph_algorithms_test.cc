#include "src/graph/algorithms.h"

#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::MakeGraph;

TEST(ReachTest, SelfIsReachable) {
  const Graph g = MakeGraph(3, {{0, 1}});
  EXPECT_TRUE(Reaches(g, 2, 2));
  EXPECT_TRUE(Reaches(g, 0, 0));
}

TEST(ReachTest, ChainAndDisconnect) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}});
  EXPECT_TRUE(Reaches(g, 0, 2));
  EXPECT_FALSE(Reaches(g, 2, 0));
  EXPECT_FALSE(Reaches(g, 0, 3));
}

TEST(ReachTest, Cycle) {
  const Graph g = MakeGraph(3, {{0, 1}, {1, 2}, {2, 0}});
  for (NodeId s = 0; s < 3; ++s) {
    for (NodeId t = 0; t < 3; ++t) EXPECT_TRUE(Reaches(g, s, t));
  }
}

TEST(BfsDistancesTest, ChainDistances) {
  const Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<uint32_t> d = BfsDistances(g, 0);
  EXPECT_EQ(d, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(BfsDistance(g, 0, 4), 4u);
  EXPECT_EQ(BfsDistance(g, 4, 0), kInfDistance);
  // The reverse search: distances TO a node, along in-edges.
  EXPECT_EQ(BfsDistancesTo(g, 4), (std::vector<uint32_t>{4, 3, 2, 1, 0}));
  const std::vector<uint32_t> to_0 = BfsDistancesTo(g, 0);
  EXPECT_EQ(to_0[0], 0u);
  for (NodeId v = 1; v < 5; ++v) EXPECT_EQ(to_0[v], kInfDistance);
}

TEST(BfsDistancesTest, MaxDistPrunes) {
  const Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<uint32_t> d = BfsDistances(g, 0, /*max_dist=*/2);
  EXPECT_EQ(d[2], 2u);
  EXPECT_EQ(d[3], kInfDistance);
  const std::vector<uint32_t> to = BfsDistancesTo(g, 4, /*max_dist=*/2);
  EXPECT_EQ(to[2], 2u);
  EXPECT_EQ(to[1], kInfDistance);
  // Bound 0 keeps only the root; an unbounded search is no different from
  // the default.
  const std::vector<uint32_t> only_root = BfsDistances(g, 2, 0);
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_EQ(only_root[v], v == 2 ? 0u : kInfDistance);
  }
  EXPECT_EQ(BfsDistancesTo(g, 2, 0), only_root);
  EXPECT_EQ(BfsDistancesTo(g, 4, kInfDistance), BfsDistancesTo(g, 4));
}

TEST(BfsDistancesTest, ShortestPathPicked) {
  // Two routes 0->3: direct edge and a long way around.
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  EXPECT_EQ(BfsDistance(g, 0, 3), 1u);
  EXPECT_EQ(BfsDistances(g, 0)[3], 1u);
  EXPECT_EQ(BfsDistancesTo(g, 3)[0], 1u);
}

TEST(SccTest, SingleCycleIsOneComponent) {
  const Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  const SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 1u);
}

TEST(SccTest, DagHasSingletonComponents) {
  const Graph g = MakeGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 4u);
}

TEST(SccTest, TwoCyclesBridged) {
  const Graph g =
      MakeGraph(6, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 2}, {4, 5}});
  const SccResult scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.num_components, 3u);  // {0,1}, {2,3,4}, {5}
  EXPECT_EQ(scc.component_of[0], scc.component_of[1]);
  EXPECT_EQ(scc.component_of[2], scc.component_of[3]);
  EXPECT_EQ(scc.component_of[3], scc.component_of[4]);
  EXPECT_NE(scc.component_of[0], scc.component_of[2]);
  EXPECT_NE(scc.component_of[4], scc.component_of[5]);
}

// Property: nodes share a component iff they reach each other.
TEST(SccTest, ComponentsMatchMutualReachabilityOnRandomGraphs) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.Uniform(30);
    const Graph g = ErdosRenyi(n, 2 * n, 1, &rng);
    const SccResult scc = StronglyConnectedComponents(g);
    const std::vector<Bitset> tc = TransitiveClosure(g);
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const bool mutual = tc[u].Test(v) && tc[v].Test(u);
        EXPECT_EQ(scc.component_of[u] == scc.component_of[v], mutual)
            << "nodes " << u << "," << v;
      }
    }
  }
}

// Property: condensation edges always go to strictly smaller component ids
// (reverse topological order) — the invariant the bitset propagation needs.
TEST(CondensationTest, EdgesGoToSmallerIds) {
  Rng rng(37);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.Uniform(50);
    const Graph g = ErdosRenyi(n, 3 * n, 1, &rng);
    const Condensation c = Condense(g);
    for (uint32_t comp = 0; comp < c.scc.num_components; ++comp) {
      for (size_t e = c.offsets[comp]; e < c.offsets[comp + 1]; ++e) {
        EXPECT_LT(c.targets[e], comp);
      }
    }
  }
}

TEST(TransitiveClosureTest, MatchesPairwiseBfs) {
  Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 2 + rng.Uniform(25);
    const Graph g = ErdosRenyi(n, 2 * n, 1, &rng);
    const std::vector<Bitset> tc = TransitiveClosure(g);
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<bool> reach = ReachableFrom(g, u);
      for (NodeId v = 0; v < n; ++v) {
        EXPECT_EQ(tc[u].Test(v), static_cast<bool>(reach[v]));
      }
    }
  }
}

TEST(ReachableTargetsTest, MatchesTransitiveClosure) {
  Rng rng(43);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + rng.Uniform(40);
    const Graph g = ErdosRenyi(n, 2 * n, 1, &rng);
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.3)) targets.push_back(v);
    }
    if (targets.empty()) targets.push_back(0);
    const std::vector<Bitset> result = ReachableTargets(g, targets);
    const std::vector<Bitset> tc = TransitiveClosure(g);
    for (NodeId v = 0; v < n; ++v) {
      for (size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(result[v].Test(i), tc[v].Test(targets[i]))
            << "v=" << v << " target=" << targets[i];
      }
    }
  }
}

// Property: the blocked ForEachReachableTarget agrees with the dense
// version, across block sizes that force multiple blocks.
TEST(ForEachReachableTargetTest, BlockedMatchesDense) {
  Rng rng(47);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 3 + rng.Uniform(60);
    const Graph g = ErdosRenyi(n, 3 * n, 1, &rng);
    std::vector<NodeId> sources, targets;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.4)) sources.push_back(v);
      if (rng.Bernoulli(0.5)) targets.push_back(v);
    }
    if (sources.empty()) sources.push_back(0);
    if (targets.empty()) targets.push_back(static_cast<NodeId>(n - 1));

    std::set<std::pair<uint32_t, uint32_t>> got;
    ForEachReachableTarget(g, sources, targets, /*block_bits=*/64,
                           [&got](uint32_t si, uint32_t ti) {
                             EXPECT_TRUE(got.emplace(si, ti).second)
                                 << "duplicate emission";
                           });
    const std::vector<Bitset> tc = TransitiveClosure(g);
    for (uint32_t si = 0; si < sources.size(); ++si) {
      for (uint32_t ti = 0; ti < targets.size(); ++ti) {
        EXPECT_EQ(got.count({si, ti}) > 0, tc[sources[si]].Test(targets[ti]))
            << "s=" << sources[si] << " t=" << targets[ti];
      }
    }
  }
}

TEST(AllPairsDistancesTest, MatchesBfs) {
  Rng rng(53);
  const size_t n = 20;
  const Graph g = ErdosRenyi(n, 40, 1, &rng);
  const auto apd = AllPairsDistances(g);
  for (NodeId u = 0; u < n; ++u) {
    const std::vector<uint32_t> d = BfsDistances(g, u);
    const std::vector<uint32_t> to = BfsDistancesTo(g, u);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(apd[u][v], d[v]);
      EXPECT_EQ(apd[v][u], to[v]);
    }
  }
}

// Property: ForEachBoundedDistance emits exactly the (source, target) pairs
// within the bound, with exact distances.
TEST(ForEachBoundedDistanceTest, MatchesAllPairsDistances) {
  Rng rng(59);
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 3 + rng.Uniform(40);
    const Graph g = ErdosRenyi(n, 2 * n, 1, &rng);
    const uint32_t bound = 1 + static_cast<uint32_t>(rng.Uniform(6));
    std::vector<NodeId> sources, targets;
    for (NodeId v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.4)) sources.push_back(v);
      if (rng.Bernoulli(0.4)) targets.push_back(v);
    }
    if (sources.empty()) sources.push_back(0);
    if (targets.empty()) targets.push_back(static_cast<NodeId>(n - 1));

    std::map<std::pair<uint32_t, uint32_t>, uint32_t> got;
    ForEachBoundedDistance(g, sources, targets, bound, /*block_bits=*/64,
                           [&got](uint32_t si, uint32_t ti, uint32_t d) {
                             EXPECT_TRUE(
                                 got.emplace(std::pair{si, ti}, d).second)
                                 << "duplicate emission";
                           });
    const auto apd = AllPairsDistances(g);
    for (uint32_t si = 0; si < sources.size(); ++si) {
      for (uint32_t ti = 0; ti < targets.size(); ++ti) {
        const uint32_t expect = apd[sources[si]][targets[ti]];
        auto it = got.find({si, ti});
        if (expect <= bound) {
          ASSERT_NE(it, got.end())
              << "missing pair s=" << sources[si] << " t=" << targets[ti]
              << " dist=" << expect << " bound=" << bound;
          EXPECT_EQ(it->second, expect);
        } else {
          EXPECT_EQ(it, got.end())
              << "spurious pair s=" << sources[si] << " t=" << targets[ti];
        }
      }
    }
  }
}

TEST(TopologicalOrderTest, RespectsEdges) {
  const Graph g = MakeGraph(5, {{0, 1}, {0, 2}, {2, 3}, {1, 3}, {3, 4}});
  const std::vector<NodeId> order = TopologicalOrder(g);
  std::vector<size_t> pos(5);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v : g.OutNeighbors(u)) EXPECT_LT(pos[u], pos[v]);
  }
}

}  // namespace
}  // namespace pereach
