#include "bench/bench_common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>

#include "src/baselines/dis_naive.h"
#include "src/baselines/dis_rpq_suciu.h"
#include "src/core/dis_rpq.h"
#include "src/util/logging.h"

namespace pereach {
namespace bench {

BenchOptions BenchOptions::Parse(int argc, char** argv, double default_scale,
                                 size_t default_queries) {
  return Parse(argc, argv, default_scale, default_queries,
               [](const char*) { return false; });
}

BenchOptions BenchOptions::Parse(
    int argc, char** argv, double default_scale, size_t default_queries,
    const std::function<bool(const char*)>& extra) {
  BenchOptions opts;
  opts.scale = default_scale;
  opts.queries = default_queries;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      opts.scale = std::atof(arg + 8);
    } else if (std::strncmp(arg, "--queries=", 10) == 0) {
      opts.queries = static_cast<size_t>(std::atoll(arg + 10));
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      opts.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      opts.json_path = arg + 7;
    } else if (!extra(arg)) {
      std::fprintf(stderr,
                   "unknown flag %s (shared flags: --scale= --queries= "
                   "--seed= --json=)\n",
                   arg);
      std::exit(2);
    }
  }
  PEREACH_CHECK_GT(opts.scale, 0.0);
  PEREACH_CHECK_GE(opts.queries, 1u);
  return opts;
}

uint64_t ExtractSeedFlag(int* argc, char** argv, uint64_t default_seed) {
  uint64_t seed = default_seed;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      seed = static_cast<uint64_t>(std::atoll(argv[i] + 7));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return seed;
}

void WriteBenchJson(
    const std::string& path, const std::string& name,
    const std::vector<std::pair<std::string, double>>& metrics) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  PEREACH_CHECK(f != nullptr && "cannot open --json output path");
  std::fprintf(f, "{\"bench\": \"%s\", \"metrics\": {", name.c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "%s\"%s\": ", i == 0 ? "" : ", ", metrics[i].first.c_str());
    if (std::isfinite(metrics[i].second)) {
      std::fprintf(f, "%.6g", metrics[i].second);
    } else {
      std::fputs("null", f);
    }
  }
  std::fprintf(f, "}}\n");
  std::fclose(f);
}

NetworkModel BenchNetwork() {
  NetworkModel net;
  // Geo-distributed data centers (the paper's motivating deployment, §1):
  // a few ms one-way latency and WAN-grade shared ingress at the
  // coordinator. Documented in bench_suite/README.md.
  net.latency_ms = 5.0;
  net.bandwidth_mb_per_s = 25.0;
  return net;
}

std::vector<std::pair<NodeId, NodeId>> MakeQueryPairs(const Graph& g,
                                                      size_t count, Rng* rng) {
  const size_t n = g.NumNodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    NodeId s = static_cast<NodeId>(rng->Uniform(n));
    if (i % 2 == 0) {
      // Forward random walk: t likely reachable from s.
      NodeId t = s;
      const size_t steps = 2 + rng->Uniform(24);
      for (size_t step = 0; step < steps; ++step) {
        auto out = g.OutNeighbors(t);
        if (out.empty()) break;
        t = out[rng->Uniform(out.size())];
      }
      if (t == s) t = static_cast<NodeId>(rng->Uniform(n));
      pairs.emplace_back(s, t);
    } else {
      pairs.emplace_back(s, static_cast<NodeId>(rng->Uniform(n)));
    }
  }
  return pairs;
}

QueryAutomaton MakeRandomAutomaton(size_t num_symbols, size_t num_labels,
                                   Rng* rng) {
  return QueryAutomaton::FromRegex(
             Regex::Random(num_symbols, num_labels, rng))
      .value();
}

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& c : columns) std::printf("%-16s", c.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("----------------");
  std::printf("\n");
  std::fflush(stdout);
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) std::printf("%-16s", c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatMs(double ms) {
  char buf[64];
  if (ms >= 1000.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", ms / 1000.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2fms", ms);
  }
  return buf;
}

std::string FormatMb(double mb) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3fMB", mb);
  return buf;
}

AveragedRun Average(
    const std::vector<std::pair<NodeId, NodeId>>& pairs,
    const std::function<QueryAnswer(NodeId, NodeId)>& run_query) {
  AveragedRun avg;
  for (const auto& [s, t] : pairs) {
    const QueryAnswer answer = run_query(s, t);
    avg.metrics.Accumulate(answer.metrics);
    if (answer.reachable) ++avg.true_count;
  }
  avg.metrics.ScaleDown(pairs.size());
  return avg;
}

RegularWorkload MakeRegularWorkload(const Graph& g, size_t count,
                                    size_t num_symbols, size_t num_labels,
                                    Rng* rng) {
  RegularWorkload w;
  w.pairs = MakeQueryPairs(g, count, rng);
  w.automata.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    w.automata.push_back(MakeRandomAutomaton(num_symbols, num_labels, rng));
  }
  return w;
}

RegularComparison RunRegularComparison(Cluster* cluster,
                                       const RegularWorkload& workload) {
  RegularComparison cmp;
  for (size_t i = 0; i < workload.pairs.size(); ++i) {
    const auto [s, t] = workload.pairs[i];
    const QueryAutomaton& a = workload.automata[i];
    cmp.rpq.Accumulate(DisRpqAutomaton(cluster, s, t, a).metrics);
    cmp.naive.Accumulate(DisRpqNaive(cluster, s, t, a).metrics);
    cmp.suciu.Accumulate(DisRpqSuciu(cluster, s, t, a).metrics);
  }
  cmp.rpq.ScaleDown(workload.pairs.size());
  cmp.naive.ScaleDown(workload.pairs.size());
  cmp.suciu.ScaleDown(workload.pairs.size());
  return cmp;
}

}  // namespace bench
}  // namespace pereach
