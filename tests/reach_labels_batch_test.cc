// Differential suite for the bit-parallel batch path of the coordinator
// reach core: ReachLabels::ReachesAnyWord versus the scalar lookup and the
// centralized oracle across random condensations and word shapes, and
// BoundaryReachIndex::AnswerBatch (reach, and rpq over glued product graphs)
// versus the oracle across update epochs at the engine level. Every
// assertion carries the seed, so a failing cell reproduces from the log.

#include "src/index/reach_labels.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/core/incremental.h"
#include "src/engine/partial_eval_engine.h"
#include "src/net/cluster.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::EdgeWorld;
using testing_util::OracleReachable;
using testing_util::RandomPartition;
using testing_util::RandomReachBatch;
using testing_util::RandomRpqBatch;

/// Brute-force reflexive reachability closure of a raw edge list.
std::vector<std::vector<bool>> Closure(
    size_t n, const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  std::vector<std::vector<uint32_t>> adj(n);
  for (const auto& [u, v] : edges) adj[u].push_back(v);
  std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < n; ++s) {
    stack.assign(1, s);
    reach[s][s] = true;
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      for (uint32_t v : adj[u]) {
        if (!reach[s][v]) {
          reach[s][v] = true;
          stack.push_back(v);
        }
      }
    }
  }
  return reach;
}

std::vector<std::pair<uint32_t, uint32_t>> RandomEdges(size_t n, size_t m,
                                                       Rng* rng) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(m);
  for (size_t e = 0; e < m; ++e) {
    const uint32_t u = static_cast<uint32_t>(rng->Uniform(n));
    const uint32_t v = static_cast<uint32_t>(rng->Uniform(n));
    if (u != v) edges.emplace_back(u, v);
  }
  return edges;
}

/// Per-lane backing storage for a word (WordQuestion spans are views).
struct WordStorage {
  std::vector<std::vector<uint32_t>> src;
  std::vector<std::vector<uint32_t>> tgt;
  std::vector<WordQuestion> questions;

  void AddLane(std::vector<uint32_t> s, std::vector<uint32_t> t) {
    src.push_back(std::move(s));
    tgt.push_back(std::move(t));
  }
  std::span<const WordQuestion> Finish() {
    questions.resize(src.size());
    for (size_t i = 0; i < src.size(); ++i) {
      questions[i] = {src[i], tgt[i]};
    }
    return questions;
  }
};

// ---------------------------------------------------------------------------
// ReachLabels level: ReachesAnyWord vs scalar ReachesAny vs brute closure,
// across word shapes.

TEST(ReachLabelsBatchTest, WordMatchesScalarAndOracle) {
  constexpr uint64_t kSeed = 20260807;
  Rng rng(kSeed);
  size_t total_sweeps = 0;

  for (size_t trial = 0; trial < 12; ++trial) {
    const size_t n = 30 + rng.Uniform(90);
    const auto edges = RandomEdges(n, 3 * n, &rng);
    const auto oracle = Closure(n, edges);

    // Scalar reference and word instance over the same condensation; the
    // word instance answers several words in a row (its scratch must reset
    // between them).
    ReachLabels scalar;
    scalar.Build(n, edges);
    ReachLabels labels;
    labels.Build(n, edges);
    for (size_t round = 0; round < 4; ++round) {
      // Random word widths: 1 lane, full 64, and odd sizes in between.
      for (const size_t lanes : {size_t{1}, size_t{64},
                                 size_t{1 + rng.Uniform(63)}}) {
        WordStorage word;
        for (size_t li = 0; li < lanes; ++li) {
          std::vector<uint32_t> s(1 + rng.Uniform(4));
          std::vector<uint32_t> t(1 + rng.Uniform(4));
          for (uint32_t& u : s) u = static_cast<uint32_t>(rng.Uniform(n));
          for (uint32_t& v : t) v = static_cast<uint32_t>(rng.Uniform(n));
          word.AddLane(std::move(s), std::move(t));
        }
        const uint64_t result = labels.ReachesAnyWord(word.Finish());
        for (size_t li = 0; li < lanes; ++li) {
          bool expected = false;
          for (uint32_t u : word.src[li]) {
            for (uint32_t v : word.tgt[li]) expected |= oracle[u][v];
          }
          const bool got = (result >> li) & 1;
          ASSERT_EQ(got, expected)
              << "word vs oracle: seed=" << kSeed << " trial=" << trial
              << " round=" << round << " lane=" << li << "/" << lanes;
          ASSERT_EQ(got, scalar.ReachesAny(word.src[li], word.tgt[li]))
              << "word vs scalar: seed=" << kSeed << " trial=" << trial
              << " round=" << round << " lane=" << li << "/" << lanes;
        }
      }
    }
    total_sweeps += labels.sweep_count();
  }
  // The fuzzed space actually exercised the sweep engine.
  EXPECT_GT(total_sweeps, 0u) << "seed=" << kSeed;
}

TEST(ReachLabelsBatchTest, AllLabelDecidedWordSkipsTheSweep) {
  constexpr uint64_t kSeed = 424242;
  Rng rng(kSeed);
  const size_t n = 60;
  const auto edges = RandomEdges(n, 3 * n, &rng);
  ReachLabels labels;
  labels.Build(n, edges);

  // Reflexive lanes (sources == targets) are decided by the cu == cv label
  // verdict, so a full word of them must not enter the sweep.
  WordStorage word;
  for (size_t li = 0; li < 64; ++li) {
    const uint32_t u = static_cast<uint32_t>(rng.Uniform(n));
    word.AddLane({u}, {u});
  }
  const size_t sweeps_before = labels.sweep_count();
  const size_t hits_before = labels.label_hits();
  const uint64_t result = labels.ReachesAnyWord(word.Finish());
  EXPECT_EQ(result, ~uint64_t{0}) << "seed=" << kSeed;
  EXPECT_EQ(labels.sweep_count(), sweeps_before) << "seed=" << kSeed;
  EXPECT_EQ(labels.label_hits(), hits_before + 64) << "seed=" << kSeed;
  EXPECT_EQ(labels.batch_words(), 1u);
}

TEST(ReachLabelsBatchTest, AllFallbackWordSweepsEveryLane) {
  constexpr uint64_t kSeed = 777001;
  Rng rng(kSeed);
  size_t graphs_with_fallback_pairs = 0;

  for (size_t trial = 0; trial < 10; ++trial) {
    const size_t n = 40 + rng.Uniform(80);
    const auto edges = RandomEdges(n, 2 * n, &rng);
    const auto oracle = Closure(n, edges);

    // Harvest label-UNDECIDED single pairs with a scalar probe: a pair is
    // undecided exactly when the scalar lookup takes the DFS fallback.
    ReachLabels probe;
    probe.Build(n, edges);
    std::vector<std::pair<uint32_t, uint32_t>> hard;
    for (size_t attempt = 0; attempt < 4000 && hard.size() < 64; ++attempt) {
      const uint32_t u = static_cast<uint32_t>(rng.Uniform(n));
      const uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
      const uint32_t a[1] = {u}, b[1] = {v};
      const size_t fallbacks_before = probe.dfs_fallbacks();
      probe.ReachesAny(a, b);
      if (probe.dfs_fallbacks() > fallbacks_before) hard.emplace_back(u, v);
    }
    if (hard.empty()) continue;
    ++graphs_with_fallback_pairs;

    // A word made entirely of undecided pairs: every lane must be answered
    // by the sweep (sweep_lanes grows by the lane count), and exactly.
    ReachLabels labels;
    labels.Build(n, edges);
    WordStorage word;
    for (const auto& [u, v] : hard) word.AddLane({u}, {v});
    const size_t lanes_before = labels.sweep_lanes();
    const size_t depth_before = labels.sweep_depth();
    const uint64_t result = labels.ReachesAnyWord(word.Finish());
    EXPECT_EQ(labels.sweep_lanes(), lanes_before + hard.size())
        << "seed=" << kSeed << " trial=" << trial;
    EXPECT_EQ(labels.sweep_count(), 1u)
        << "seed=" << kSeed << " trial=" << trial;
    EXPECT_GT(labels.sweep_depth(), depth_before)
        << "seed=" << kSeed << " trial=" << trial;
    for (size_t li = 0; li < hard.size(); ++li) {
      ASSERT_EQ((result >> li) & 1, oracle[hard[li].first][hard[li].second])
          << "seed=" << kSeed << " trial=" << trial << " lane=" << li;
    }
  }
  EXPECT_GT(graphs_with_fallback_pairs, 0u) << "seed=" << kSeed;
}

TEST(ReachLabelsBatchTest, EmptySidesAnswerFalseLikeScalar) {
  ReachLabels labels;
  labels.Build(4, {{3, 2}, {2, 1}, {1, 0}});
  WordStorage word;
  word.AddLane({}, {0});       // no sources
  word.AddLane({3}, {});       // no targets
  word.AddLane({3}, {0});      // real question, lane 2
  EXPECT_EQ(labels.ReachesAnyWord(word.Finish()), uint64_t{1} << 2);
}

// ---------------------------------------------------------------------------
// Engine level: whole reach batches through the indexed PartialEvalEngine vs
// the centralized oracle, across update epochs (the standing index rebuilds
// each epoch) and across the 64-lane word boundary.

TEST(ReachLabelsBatchTest, EngineReachBatchesMatchAcrossEpochs) {
  constexpr uint64_t kSeed = 555007;
  constexpr size_t kSites = 4, kEpochs = 3;
  Rng rng(kSeed);
  const size_t n = 70 + rng.Uniform(30);
  const Graph g = testing_util::MakeGraph(n, RandomEdges(n, 3 * n, &rng));
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  IncrementalReachIndex index(g, part, kSites);
  EdgeWorld world = EdgeWorld::FromGraph(g);
  Cluster cluster(&index.fragmentation(), NetworkModel{});
  PartialEvalOptions options;
  options.reach_path = ReachAnswerPath::kBoundaryIndex;
  PartialEvalEngine engine(&cluster, options);
  index.SetUpdateListener(
      [&engine](SiteId site) { engine.InvalidateFragment(site); });

  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    const Graph oracle = world.Build();
    // Batch sizes that cross the 64-lane word boundary: 1, 64, 130.
    for (const size_t batch_size : {size_t{1}, size_t{64}, size_t{130}}) {
      const std::vector<Query> batch = RandomReachBatch(n, batch_size, &rng);
      const BatchAnswer result = engine.EvaluateBatch(batch);
      for (size_t q = 0; q < batch.size(); ++q) {
        ASSERT_EQ(result.answers[q].reachable,
                  OracleReachable(oracle, batch[q]))
            << "seed=" << kSeed << " epoch=" << epoch
            << " batch_size=" << batch_size << " q=" << q << " ("
            << batch[q].source << " -> " << batch[q].target << ")";
      }
    }
    index.AddEdges(world.AddRandomEdges(4, &rng));
  }
  index.SetUpdateListener(nullptr);

  const BoundaryReachIndex* idx = engine.boundary_index();
  ASSERT_NE(idx, nullptr);
  EXPECT_GT(idx->batch_words(), 0u);
}

// ---------------------------------------------------------------------------
// Engine level, rpq: batches over repeated automata through the glued
// product graphs (set questions: the successors of (s, u_s) against
// (t, u_t)) vs the centralized oracle, across update epochs.

TEST(ReachLabelsBatchTest, EngineRpqBatchesMatchAcrossEpochs) {
  constexpr uint64_t kSeed = 909090;
  constexpr size_t kSites = 3, kEpochs = 2, kNumLabels = 3;
  Rng rng(kSeed);
  const size_t n = 50 + rng.Uniform(30);
  const Graph g = [&] {
    std::vector<LabelId> labels(n);
    for (LabelId& l : labels) {
      l = static_cast<LabelId>(rng.Uniform(kNumLabels));
    }
    return testing_util::MakeGraph(n, RandomEdges(n, 3 * n, &rng), labels);
  }();
  const std::vector<SiteId> part = RandomPartition(n, kSites, &rng);
  IncrementalReachIndex index(g, part, kSites);
  EdgeWorld world = EdgeWorld::FromGraph(g);
  Cluster cluster(&index.fragmentation(), NetworkModel{});

  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  options.rpq_cache_entries = 4;
  PartialEvalEngine engine(&cluster, options);
  index.SetUpdateListener(
      [&engine](SiteId site) { engine.InvalidateFragment(site); });

  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    const Graph oracle = world.Build();
    const std::vector<Query> batch =
        RandomRpqBatch(n, /*count=*/70, /*num_distinct=*/3, kNumLabels, &rng);
    const BatchAnswer result = engine.EvaluateBatch(batch);
    for (size_t q = 0; q < batch.size(); ++q) {
      ASSERT_EQ(result.answers[q].reachable,
                OracleReachable(oracle, batch[q]))
          << "seed=" << kSeed << " epoch=" << epoch << " q=" << q;
    }
    index.AddEdges(world.AddRandomEdges(3, &rng));
  }
  index.SetUpdateListener(nullptr);
}

}  // namespace
}  // namespace pereach
