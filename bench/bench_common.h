#ifndef PEREACH_BENCH_BENCH_COMMON_H_
#define PEREACH_BENCH_BENCH_COMMON_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/answer.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/net/cluster.h"
#include "src/net/metrics.h"
#include "src/regex/query_automaton.h"
#include "src/util/common.h"
#include "src/util/random.h"

namespace pereach {
namespace bench {

/// Command-line knobs shared by every figure/table harness:
///   --scale=<f>    dataset scale factor (default per harness)
///   --queries=<n>  queries per measurement point
///   --seed=<n>     RNG seed
///   --json=<path>  write machine-readable results (CI perf artifact)
/// Unknown flags CHECK-fail with a usage message. Harnesses with extra
/// flags (bench_server's --clients/--window-us) pass an `extra` handler
/// that claims them, so every bench parses the shared flags — notably
/// --seed, which CI relies on for reproducible smoke runs — identically.
struct BenchOptions {
  double scale = 0.05;
  size_t queries = 10;
  uint64_t seed = 42;
  std::string json_path;  // empty = no JSON output

  static BenchOptions Parse(int argc, char** argv, double default_scale,
                            size_t default_queries);
  static BenchOptions Parse(int argc, char** argv, double default_scale,
                            size_t default_queries,
                            const std::function<bool(const char*)>& extra);
};

/// Pulls a `--seed=<n>` flag out of argv (compacting it), returning the
/// seed or `default_seed`. For harnesses whose remaining flags belong to
/// another parser (bench_micro hands argv to Google Benchmark).
uint64_t ExtractSeedFlag(int* argc, char** argv, uint64_t default_seed);

/// Writes `{"bench": <name>, "metrics": {k: v, ...}}` to `path` (one JSON
/// object per file; the CI smoke job merges the per-bench files into
/// BENCH_pr.json). A NaN or infinite value is written as null, since JSON
/// has no token for it. No-op when `path` is empty.
void WriteBenchJson(const std::string& path, const std::string& name,
                    const std::vector<std::pair<std::string, double>>& metrics);

/// The default network model used by every figure (documented in
/// bench_suite/README.md): 5 ms one-way latency, 25 MB/s coordinator link.
NetworkModel BenchNetwork();

/// Random query endpoints biased toward the paper's ~30% true rate:
/// half the pairs are sampled (ancestor, descendant-ish) via short forward
/// walks, half uniformly.
std::vector<std::pair<NodeId, NodeId>> MakeQueryPairs(const Graph& g,
                                                      size_t count, Rng* rng);

/// Random regular query: automaton from a random regex with `num_symbols`
/// symbols over the graph's label alphabet (capped at `num_labels`).
QueryAutomaton MakeRandomAutomaton(size_t num_symbols, size_t num_labels,
                                   Rng* rng);

/// Fixed-width table printing helpers (paper-style rows).
void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string FormatMs(double ms);
std::string FormatMb(double mb);

/// Averages metrics produced by a per-query runner over `pairs`, printing
/// nothing; returns (avg metrics, number of true answers).
struct AveragedRun {
  RunMetrics metrics;
  size_t true_count = 0;
};
AveragedRun Average(
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const std::function<QueryAnswer(NodeId, NodeId)>& run_query);

/// A regular-reachability workload: random (s, t) pairs each paired with a
/// random query automaton of the requested complexity.
struct RegularWorkload {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  std::vector<QueryAutomaton> automata;
};
RegularWorkload MakeRegularWorkload(const Graph& g, size_t count,
                                    size_t num_symbols, size_t num_labels,
                                    Rng* rng);

/// Runs disRPQ / disRPQn / disRPQd over one workload, averaging metrics.
struct RegularComparison {
  RunMetrics rpq;
  RunMetrics naive;
  RunMetrics suciu;
};
RegularComparison RunRegularComparison(Cluster* cluster,
                                       const RegularWorkload& workload);

}  // namespace bench
}  // namespace pereach

#endif  // PEREACH_BENCH_BENCH_COMMON_H_
