#include "src/core/incremental.h"

#include <gtest/gtest.h>

#include "src/baselines/centralized.h"
#include "src/engine/partial_eval_engine.h"
#include "src/graph/generators.h"
#include "src/net/cluster.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::MakePaperExample;
using testing_util::PaperExample;
using testing_util::RandomPartition;

/// A BES engine over the index's fragmentation, its context cache wired to
/// the index's update listener.
struct Served {
  explicit Served(IncrementalReachIndex* index)
      : cluster(&index->fragmentation(), NetworkModel{}), engine(&cluster) {
    index->SetUpdateListener(
        [this](SiteId site) { engine.InvalidateFragment(site); });
  }

  bool Reach(NodeId s, NodeId t) {
    return engine.Evaluate(Query::Reach(s, t)).reachable;
  }
  size_t builds() const { return engine.context_cache().build_count(); }

  Cluster cluster;
  PartialEvalEngine engine;
};

TEST(IncrementalTest, AnswersMatchCentralizedBeforeUpdates) {
  const PaperExample ex = MakePaperExample();
  IncrementalReachIndex index(ex.graph, ex.partition, 3);
  Served served(&index);
  EXPECT_TRUE(served.Reach(ex.ann, ex.mark));
  EXPECT_FALSE(served.Reach(ex.mark, ex.ann));
  EXPECT_TRUE(served.Reach(ex.pat, ex.mark));
  EXPECT_TRUE(served.Reach(ex.tom, ex.tom));
  EXPECT_FALSE(served.Reach(ex.ann, ex.tom));
  index.SetUpdateListener(nullptr);
}

TEST(IncrementalTest, EdgeInsertFlipsAnswer) {
  const PaperExample ex = MakePaperExample();
  IncrementalReachIndex index(ex.graph, ex.partition, 3);
  Served served(&index);
  EXPECT_FALSE(served.Reach(ex.ann, ex.tom));
  index.AddEdge(ex.mark, ex.tom);  // Mark recommends Tom
  EXPECT_TRUE(served.Reach(ex.ann, ex.tom));
  index.SetUpdateListener(nullptr);
}

TEST(IncrementalTest, CachesSurviveUnrelatedUpdates) {
  const PaperExample ex = MakePaperExample();
  IncrementalReachIndex index(ex.graph, ex.partition, 3);
  Served served(&index);
  served.Reach(ex.ann, ex.mark);  // warm all 3 fragment contexts
  const size_t warm = served.builds();
  EXPECT_EQ(warm, 3u);

  // An intra-fragment edge in DC3 dirties only fragment 2.
  index.AddEdge(ex.tom, ex.ross);
  served.Reach(ex.ann, ex.mark);
  EXPECT_EQ(served.builds(), warm + 1);

  // A cross edge DC1 -> DC2 dirties fragments 0 and 1.
  index.AddEdge(ex.bill, ex.jack);
  served.Reach(ex.ann, ex.mark);
  EXPECT_EQ(served.builds(), warm + 3);
  index.SetUpdateListener(nullptr);
}

TEST(IncrementalTest, MatchesCentralizedUnderRandomInsertions) {
  Rng rng(83);
  for (int trial = 0; trial < 6; ++trial) {
    const size_t n = 20 + rng.Uniform(40);
    Graph g = ErdosRenyi(n, n, 2, &rng);
    const size_t k = 2 + rng.Uniform(4);
    const std::vector<SiteId> part = RandomPartition(n, k, &rng);
    IncrementalReachIndex index(g, part, k);
    Served served(&index);

    // Mirror of the evolving graph for the oracle.
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v : g.OutNeighbors(u)) edges.emplace_back(u, v);
    }

    for (int round = 0; round < 8; ++round) {
      // Insert a random edge.
      const NodeId u = static_cast<NodeId>(rng.Uniform(n));
      NodeId v = static_cast<NodeId>(rng.Uniform(n - 1));
      if (v >= u) ++v;
      index.AddEdge(u, v);
      edges.emplace_back(u, v);
      const Graph oracle = testing_util::MakeGraph(n, edges);

      for (int q = 0; q < 8; ++q) {
        const NodeId s = static_cast<NodeId>(rng.Uniform(n));
        const NodeId t = static_cast<NodeId>(rng.Uniform(n));
        ASSERT_EQ(served.Reach(s, t), CentralizedReach(oracle, s, t))
            << "after insert (" << u << "," << v << ") query " << s << "->"
            << t;
      }
    }
    index.SetUpdateListener(nullptr);
  }
}

TEST(IncrementalTest, RecomputesAtMostTwoFragmentsPerInsert) {
  Rng rng(89);
  const size_t n = 60;
  const Graph g = ErdosRenyi(n, 2 * n, 1, &rng);
  const size_t k = 6;
  const std::vector<SiteId> part = RandomPartition(n, k, &rng);
  IncrementalReachIndex index(g, part, k);
  Served served(&index);
  served.Reach(0, 1);  // warm contexts: k builds
  size_t previous = served.builds();
  EXPECT_EQ(previous, k);
  for (int i = 0; i < 10; ++i) {
    const NodeId u = static_cast<NodeId>(rng.Uniform(n));
    NodeId v = static_cast<NodeId>(rng.Uniform(n - 1));
    if (v >= u) ++v;
    index.AddEdge(u, v);
    served.Reach(0, 1);
    const size_t now = served.builds();
    EXPECT_LE(now - previous, 2u) << "insert " << i;
    previous = now;
  }
  index.SetUpdateListener(nullptr);
}

}  // namespace
}  // namespace pereach
