// Micro/ablation benchmarks (google-benchmark) for the design choices
// DESIGN.md calls out:
//  - localEval strategy: SCC bitset propagation vs per-in-node BFS
//  - BES solving: dependency-graph BFS vs naive fixpoint iteration
//  - partial-answer encoding: adaptive sparse/dense vs always-dense
//  - query automaton construction cost
//  - product graph construction for localEvalr
//  - partitioner cost and cut quality
//  - full disReach per query

#include <deque>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"

#include "src/bes/bes.h"
#include "src/core/dis_reach.h"
#include "src/core/local_eval.h"
#include "src/engine/fragment_context.h"
#include "src/fragment/partitioner.h"
#include "src/graph/algorithms.h"
#include "src/graph/generators.h"
#include "src/index/reach_labels.h"
#include "src/net/cluster.h"
#include "src/regex/canonical.h"
#include "src/regex/query_automaton.h"
#include "src/util/timer.h"

namespace pereach {
namespace {

// Base RNG seed, settable with --seed= (extracted before Google Benchmark
// parses its own flags) so CI smoke runs are reproducible like every other
// bench. Each site adds a distinct offset to keep streams independent.
uint64_t g_seed = 42;

Fragmentation MakeBenchFragmentation(size_t n, size_t k, uint64_t seed) {
  Rng rng(seed);
  const Graph g = ErdosRenyi(n, 3 * n, 4, &rng);
  const std::vector<SiteId> part = RandomPartitioner().Partition(g, k, &rng);
  return Fragmentation::Build(g, part, k);
}

// --- localEval: bitset propagation (the shipped implementation) ------------

void BM_LocalEvalReach_SccBitset(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Fragmentation frag = MakeBenchFragmentation(n, 4, g_seed);
  const Fragment& f = frag.fragment(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LocalEvalReach(f, 0, static_cast<NodeId>(n - 1)));
  }
  state.SetItemsProcessed(state.iterations() * f.in_nodes().size());
}
BENCHMARK(BM_LocalEvalReach_SccBitset)->Arg(2000)->Arg(10000)->Arg(40000);

// --- localEval ablation: one BFS per in-node (the textbook strategy) -------

void BM_LocalEvalReach_PerSourceBfs(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Fragmentation frag = MakeBenchFragmentation(n, 4, g_seed);
  const Fragment& f = frag.fragment(0);
  const Graph& g = f.local_graph();
  for (auto _ : state) {
    size_t reached_pairs = 0;
    std::vector<uint32_t> stamp(g.NumNodes(), 0);
    uint32_t epoch = 0;
    for (NodeId src : f.in_nodes()) {
      ++epoch;
      std::deque<NodeId> queue{src};
      stamp[src] = epoch;
      while (!queue.empty()) {
        const NodeId u = queue.front();
        queue.pop_front();
        if (f.IsVirtual(u)) {
          ++reached_pairs;
          continue;  // virtual nodes are sinks
        }
        for (NodeId v : g.OutNeighbors(u)) {
          if (stamp[v] != epoch) {
            stamp[v] = epoch;
            queue.push_back(v);
          }
        }
      }
    }
    benchmark::DoNotOptimize(reached_pairs);
  }
  state.SetItemsProcessed(state.iterations() * f.in_nodes().size());
}
BENCHMARK(BM_LocalEvalReach_PerSourceBfs)->Arg(2000)->Arg(10000);

// --- BES solving ------------------------------------------------------------

BooleanEquationSystem MakeBenchBes(size_t n, uint64_t seed) {
  Rng rng(seed);
  BooleanEquationSystem bes;
  for (uint64_t v = 0; v < n; ++v) {
    BoolEquation eq;
    eq.var = v;
    eq.has_true = rng.Bernoulli(0.02);
    for (size_t d = rng.Uniform(6); d > 0; --d) {
      eq.deps.push_back(rng.Uniform(n));
    }
    bes.Add(std::move(eq));
  }
  return bes;
}

void BM_BesDependencyGraphSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BooleanEquationSystem bes = MakeBenchBes(n, g_seed + 7);
  uint64_t var = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bes.Evaluate(var));
    var = (var + 1) % n;
  }
}
BENCHMARK(BM_BesDependencyGraphSolve)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BesNaiveFixpointSolve(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BooleanEquationSystem bes = MakeBenchBes(n, g_seed + 7);
  uint64_t var = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bes.EvaluateNaive(var));
    var = (var + 1) % n;
  }
}
BENCHMARK(BM_BesNaiveFixpointSolve)->Arg(1000)->Arg(10000);

// --- partial-answer encoding -------------------------------------------------

void BM_ReachAnswerEncodeAdaptive(benchmark::State& state) {
  const Fragmentation frag =
      MakeBenchFragmentation(static_cast<size_t>(state.range(0)), 4,
                             g_seed + 11);
  const ReachPartialAnswer pa = LocalEvalReach(frag.fragment(0), 0, 1);
  size_t bytes = 0;
  for (auto _ : state) {
    Encoder enc;
    pa.Serialize(&enc);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ReachAnswerEncodeAdaptive)->Arg(5000)->Arg(20000);

// --- automaton + product construction ---------------------------------------

void BM_QueryAutomatonFromRegex(benchmark::State& state) {
  Rng rng(g_seed + 3);
  const Regex r = Regex::Random(static_cast<size_t>(state.range(0)), 8, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(QueryAutomaton::FromRegex(r));
  }
}
BENCHMARK(BM_QueryAutomatonFromRegex)->Arg(4)->Arg(16)->Arg(60);

void BM_LocalEvalRegularProduct(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Fragmentation frag = MakeBenchFragmentation(n, 4, g_seed + 13);
  Rng rng(g_seed + 5);
  const QueryAutomaton a =
      QueryAutomaton::FromRegex(Regex::Random(6, 4, &rng)).value();
  const Fragment& f = frag.fragment(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        LocalEvalRegular(f, a, 0, static_cast<NodeId>(n - 1)));
  }
}
BENCHMARK(BM_LocalEvalRegularProduct)->Arg(2000)->Arg(10000);

// --- automaton canonicalization + per-automaton product rows -----------------

// Signature computation cost: prune + merge fixpoint + renumber + hash,
// paid once per query at the coordinator on the indexed rpq path.
void BM_AutomatonCanonicalize(benchmark::State& state) {
  Rng rng(g_seed + 29);
  const QueryAutomaton a =
      QueryAutomaton::FromRegex(
          Regex::Random(static_cast<size_t>(state.range(0)), 8, &rng))
          .value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(a));
  }
}
BENCHMARK(BM_AutomatonCanonicalize)->Arg(4)->Arg(16)->Arg(60);

// Product rows, cache miss: every iteration rebuilds the fragment's
// per-automaton product condensation from scratch — what a site pays on an
// entry's first use (or after an LRU eviction / update invalidation).
void BM_RpqProductRowsCacheMiss(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Fragmentation frag = MakeBenchFragmentation(n, 4, g_seed + 31);
  Rng rng(g_seed + 5);
  const CanonicalAutomaton canon = Canonicalize(
      QueryAutomaton::FromRegex(Regex::Random(6, 4, &rng)).value());
  const Fragment& f = frag.fragment(0);
  for (auto _ : state) {
    FragmentContext ctx;
    benchmark::DoNotOptimize(
        &ctx.rpq_product(f, canon.signature.key, canon.automaton));
  }
}
BENCHMARK(BM_RpqProductRowsCacheMiss)->Arg(2000)->Arg(10000);

// Cache hit: the standing structures answer the lookup without rebuilding —
// the steady-serving cost a repeated regex pays at a site.
void BM_RpqProductRowsCacheHit(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Fragmentation frag = MakeBenchFragmentation(n, 4, g_seed + 31);
  Rng rng(g_seed + 5);
  const CanonicalAutomaton canon = Canonicalize(
      QueryAutomaton::FromRegex(Regex::Random(6, 4, &rng)).value());
  const Fragment& f = frag.fragment(0);
  FragmentContext ctx;
  ctx.rpq_product(f, canon.signature.key, canon.automaton);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        &ctx.rpq_product(f, canon.signature.key, canon.automaton));
  }
}
BENCHMARK(BM_RpqProductRowsCacheHit)->Arg(2000)->Arg(10000);

// --- partitioners ------------------------------------------------------------

template <typename P>
void BM_Partitioner(benchmark::State& state) {
  Rng rng(g_seed + 17);
  const Graph g = PreferentialAttachment(
      static_cast<size_t>(state.range(0)), 3, 1, &rng);
  const P partitioner;
  size_t cut = 0;
  for (auto _ : state) {
    const std::vector<SiteId> part = partitioner.Partition(g, 8, &rng);
    state.PauseTiming();
    cut = Fragmentation::Build(g, part, 8).num_cross_edges();
    state.ResumeTiming();
    benchmark::DoNotOptimize(part);
  }
  state.counters["cross_edges"] = static_cast<double>(cut);
}
BENCHMARK_TEMPLATE(BM_Partitioner, RandomPartitioner)->Arg(50000);
BENCHMARK_TEMPLATE(BM_Partitioner, ChunkPartitioner)->Arg(50000);
BENCHMARK_TEMPLATE(BM_Partitioner, BfsGrowPartitioner)->Arg(50000);

// --- equation encodings (closure vs DAG, the DESIGN.md §1.4 choice) ----------

template <EquationForm kForm>
void BM_LocalEvalReachForm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Fragmentation frag = MakeBenchFragmentation(n, 4, g_seed);
  const Fragment& f = frag.fragment(0);
  size_t bytes = 0;
  for (auto _ : state) {
    const ReachPartialAnswer pa =
        LocalEvalReach(f, 0, static_cast<NodeId>(n - 1), kForm);
    Encoder enc;
    pa.Serialize(&enc);
    bytes = enc.size();
    benchmark::DoNotOptimize(enc);
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes);
}
BENCHMARK_TEMPLATE(BM_LocalEvalReachForm, EquationForm::kClosure)->Arg(10000);
BENCHMARK_TEMPLATE(BM_LocalEvalReachForm, EquationForm::kDag)->Arg(10000);
BENCHMARK_TEMPLATE(BM_LocalEvalReachForm, EquationForm::kAuto)->Arg(10000);

// --- coordinator reach core: 64 scalar lookups vs one bit-parallel word -----

struct SweepBenchSetup {
  ReachLabels labels;
  std::vector<std::vector<uint32_t>> src;
  std::vector<std::vector<uint32_t>> tgt;
  std::vector<WordQuestion> word;
};

/// A random condensation-shaped workload: n-node random digraph, 64 random
/// single-pair questions per word (the shape of an indexed reach batch).
/// Fills in place — ReachLabels is deliberately non-copyable (threading
/// contract), so the setup cannot be returned by value.
void MakeSweepSetup(size_t n, uint64_t seed, SweepBenchSetup* setup) {
  Rng rng(seed);
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(3 * n);
  for (size_t e = 0; e < 3 * n; ++e) {
    const uint32_t u = static_cast<uint32_t>(rng.Uniform(n));
    const uint32_t v = static_cast<uint32_t>(rng.Uniform(n));
    if (u != v) edges.emplace_back(u, v);
  }
  setup->labels.Build(n, edges);
  setup->src.resize(64);
  setup->tgt.resize(64);
  setup->word.resize(64);
  for (size_t li = 0; li < 64; ++li) {
    setup->src[li] = {static_cast<uint32_t>(rng.Uniform(n))};
    setup->tgt[li] = {static_cast<uint32_t>(rng.Uniform(n))};
    setup->word[li] = {setup->src[li], setup->tgt[li]};
  }
}

// 64 questions answered one scalar ReachesAny at a time — the coordinator's
// per-query cost before the batch path. Arg: nodes.
void BM_ReachesAnyScalar64(benchmark::State& state) {
  SweepBenchSetup setup;
  MakeSweepSetup(static_cast<size_t>(state.range(0)), g_seed + 37, &setup);
  for (auto _ : state) {
    uint64_t word = 0;
    for (size_t li = 0; li < 64; ++li) {
      word |= static_cast<uint64_t>(
                  setup.labels.ReachesAny(setup.src[li], setup.tgt[li]))
              << li;
    }
    benchmark::DoNotOptimize(word);
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["dfs_fallbacks"] =
      static_cast<double>(setup.labels.dfs_fallbacks());
}
BENCHMARK(BM_ReachesAnyScalar64)->Arg(2000)->Arg(20000);

// The same 64 questions answered in ONE bit-parallel word: label pass per
// lane, one shared 64-lane sweep for the rest. Arg: nodes.
void BM_BitsetSweep64(benchmark::State& state) {
  SweepBenchSetup setup;
  MakeSweepSetup(static_cast<size_t>(state.range(0)), g_seed + 37, &setup);
  for (auto _ : state) {
    benchmark::DoNotOptimize(setup.labels.ReachesAnyWord(setup.word));
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["sweep_depth"] =
      static_cast<double>(setup.labels.sweep_depth());
}
BENCHMARK(BM_BitsetSweep64)->Arg(2000)->Arg(20000);

// --- per-query partial evaluation --------------------------------------------

void BM_DisReachFullQuery(benchmark::State& state) {
  const size_t n = 20000;
  Rng rng(g_seed + 19);
  const Graph g = ErdosRenyi(n, 3 * n, 1, &rng);
  const std::vector<SiteId> part = RandomPartitioner().Partition(g, 4, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, 4);
  Cluster cluster(&frag, NetworkModel());
  NodeId s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        DisReach(&cluster, {s, static_cast<NodeId>(n - 1 - s)}));
    s = (s + 1) % 1000;
  }
}
BENCHMARK(BM_DisReachFullQuery);

}  // namespace
}  // namespace pereach

// BENCHMARK_MAIN with the shared --seed flag peeled off first (Google
// Benchmark rejects flags it does not know).
int main(int argc, char** argv) {
  pereach::g_seed = pereach::bench::ExtractSeedFlag(&argc, argv, 42);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
