// Batched query evaluation: k reachability queries per EvaluateBatch versus
// the same k queries run sequentially through single-query Evaluate. The
// batch pays one communication round (2 latencies + one transfer) and ships
// each fragment's oset table once instead of k times, so both total modeled
// response time and total traffic drop; the per-fragment FragmentContext
// cache additionally amortizes the SCC condensation and closure rows across
// the whole batch. The ship-all baseline (graph shipped once per batch) is
// included for contrast.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/bench_common.h"
#include "src/engine/baseline_engines.h"
#include "src/engine/partial_eval_engine.h"
#include "src/fragment/partitioner.h"
#include "src/net/cluster.h"
#include "src/util/logging.h"
#include "src/util/timer.h"

namespace pereach {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  bool boundary_index = false;
  const BenchOptions opts = BenchOptions::Parse(
      argc, argv, 0.05, 64, [&boundary_index](const char* arg) {
        if (std::strcmp(arg, "--boundary-index") == 0) {
          boundary_index = true;
          return true;
        }
        return false;
      });

  Rng rng(opts.seed);
  const Graph g = MakeDataset(Dataset::kLiveJournal, opts.scale, &rng);
  const size_t k_sites = 8;
  std::printf("LiveJournal stand-in at scale %.3f: %zu nodes, %zu edges, "
              "%zu sites\n",
              opts.scale, g.NumNodes(), g.NumEdges(), k_sites);

  const std::vector<SiteId> part =
      ChunkPartitioner().Partition(g, k_sites, &rng);
  const Fragmentation frag = Fragmentation::Build(g, part, k_sites);
  Cluster cluster(&frag, BenchNetwork());
  PartialEvalOptions engine_options;  // kAuto: DAG form wins on this graph
  if (boundary_index) {
    engine_options.reach_path = ReachAnswerPath::kBoundaryIndex;
    engine_options.dist_path = DistAnswerPath::kBoundaryIndex;
    engine_options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  }
  PartialEvalEngine engine(&cluster, engine_options);
  NaiveShipAllEngine naive(&cluster);
  if (boundary_index) {
    std::printf("reach/dist/rpq path: boundary index (coordinator label + "
                "weighted graph + per-automaton product graphs over the "
                "boundary; no per-query BES)\n");
  }

  const std::vector<std::pair<NodeId, NodeId>> pairs =
      MakeQueryPairs(g, opts.queries, &rng);
  std::vector<Query> workload;
  workload.reserve(pairs.size());
  for (const auto& [s, t] : pairs) workload.push_back(Query::Reach(s, t));

  // Warm the per-fragment caches once so every batch-size row is comparable;
  // otherwise the one-time context builds are charged entirely to the first
  // row's modeled site compute.
  engine.EvaluateBatch(std::span<const Query>(workload.data(), 1));

  PrintHeader(
      "Batched q_r: one round per batch vs one round per query",
      {"batch", "rounds", "total-ms", "ms/query", "traffic", "naive-ms"});

  RunMetrics singles_total;  // batch_size == 1 row, for the JSON artifact
  RunMetrics best_total;     // largest batch row
  for (size_t batch_size = 1; batch_size <= workload.size(); batch_size *= 4) {
    // Run the workload in batches of `batch_size`, accumulating totals.
    RunMetrics total;
    RunMetrics naive_total;
    for (size_t base = 0; base < workload.size(); base += batch_size) {
      const size_t count = std::min(batch_size, workload.size() - base);
      const std::span<const Query> chunk(workload.data() + base, count);
      total.Accumulate(engine.EvaluateBatch(chunk).metrics);
      naive_total.Accumulate(naive.EvaluateBatch(chunk).metrics);
    }

    char bbuf[16], rbuf[16], per_query[24];
    std::snprintf(bbuf, sizeof(bbuf), "%zu", batch_size);
    std::snprintf(rbuf, sizeof(rbuf), "%zu", total.rounds);
    std::snprintf(per_query, sizeof(per_query), "%s",
                  FormatMs(total.modeled_ms /
                           static_cast<double>(workload.size())).c_str());
    PrintRow({bbuf, rbuf, FormatMs(total.modeled_ms), per_query,
              FormatMb(total.traffic_mb()), FormatMs(naive_total.modeled_ms)});
    if (batch_size == 1) singles_total = total;
    best_total = total;
  }

  std::printf(
      "\nExpected shape: rounds fall to 1/batch; traffic strictly decreases "
      "(shared oset tables); total modeled time drops toward the "
      "compute-bound plateau as the per-round latency amortizes. Ship-all "
      "amortizes its |G| transfer but keeps paying centralized evaluation "
      "per query.\n");

  // Dist series (the same endpoint pairs as bounded-reach queries): one
  // full-size batch through the same engine, so each JSON file carries a
  // dist row for its reach path — BES assembling without --boundary-index,
  // the standing weighted boundary graph with it.
  constexpr uint32_t kDistBound = 8;
  std::vector<Query> dist_workload;
  dist_workload.reserve(pairs.size());
  for (const auto& [s, t] : pairs) {
    dist_workload.push_back(Query::Dist(s, t, kDistBound));
  }
  // Warm the dist rows / standing graph outside the measured window, like
  // the reach warm-up above.
  engine.EvaluateBatch(std::span<const Query>(dist_workload.data(), 1));
  const RunMetrics dist_total = engine.EvaluateBatch(dist_workload).metrics;
  PrintHeader("Batched q_br (dist), one full-size batch",
              {"path", "rounds", "total-ms", "traffic"});
  char dist_rounds[16];
  std::snprintf(dist_rounds, sizeof(dist_rounds), "%zu", dist_total.rounds);
  PrintRow({boundary_index ? "boundary-index" : "bes", dist_rounds,
            FormatMs(dist_total.modeled_ms),
            FormatMb(dist_total.traffic_mb())});

  // Rpq series (the same endpoint pairs as regular queries): automata drawn
  // from a small pool — the serving-realistic shape, regexes repeat — so
  // the signature caches engage under --boundary-index. One warm batch
  // installs the standing product graphs (the refresh round); the measured
  // batch is the steady-serving cost the index amortizes toward.
  // Automata over the dataset's own (single-label) alphabet, so every
  // interior state matches real nodes and the per-query product the BES
  // path rebuilds at every site is full-size — the regime the standing
  // product graphs exist for.
  constexpr size_t kDistinctAutomata = 4;
  std::vector<QueryAutomaton> automata;
  automata.reserve(kDistinctAutomata);
  for (size_t i = 0; i < kDistinctAutomata; ++i) {
    automata.push_back(MakeRandomAutomaton(3, 1, &rng));
  }
  std::vector<Query> rpq_workload;
  rpq_workload.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    rpq_workload.push_back(Query::Rpq(pairs[i].first, pairs[i].second,
                                      automata[i % kDistinctAutomata]));
  }
  engine.EvaluateBatch(
      std::span<const Query>(rpq_workload.data(),
                             std::min<size_t>(kDistinctAutomata,
                                              rpq_workload.size())));
  const RunMetrics rpq_total = engine.EvaluateBatch(rpq_workload).metrics;
  PrintHeader("Batched q_rr (rpq), one full-size batch",
              {"path", "rounds", "total-ms", "traffic"});
  char rpq_rounds[16];
  std::snprintf(rpq_rounds, sizeof(rpq_rounds), "%zu", rpq_total.rounds);
  PrintRow({boundary_index ? "boundary-index" : "bes", rpq_rounds,
            FormatMs(rpq_total.modeled_ms),
            FormatMb(rpq_total.traffic_mb())});

  std::vector<std::pair<std::string, double>> metrics = {
      {"queries", static_cast<double>(workload.size())},
      {"seed", static_cast<double>(opts.seed)},
      {"boundary_index", boundary_index ? 1.0 : 0.0},
      {"singles_modeled_ms", singles_total.modeled_ms},
      {"singles_traffic_mb", singles_total.traffic_mb()},
      {"batched_modeled_ms", best_total.modeled_ms},
      {"batched_traffic_mb", best_total.traffic_mb()},
      {"batched_rounds", static_cast<double>(best_total.rounds)},
      {"dist_batched_modeled_ms", dist_total.modeled_ms},
      {"dist_batched_traffic_mb", dist_total.traffic_mb()},
      {"dist_bound", static_cast<double>(kDistBound)},
      {"rpq_batched_modeled_ms", rpq_total.modeled_ms},
      {"rpq_batched_traffic_mb", rpq_total.traffic_mb()},
      {"rpq_distinct_automata", static_cast<double>(kDistinctAutomata)}};

  // Coordinator-core wall clock: the same 64 random node-pair questions on
  // the glued graph answered as 64 scalar Reaches calls vs one 64-lane
  // AnswerBatch word. This is the
  // host-CPU cost the modeled figures fold into site compute — the number
  // the bit-parallel sweep exists to shrink — measured directly against the
  // standing index the reach workload above just built.
  if (boundary_index) {
    BoundaryReachIndex* idx = engine.mutable_boundary_index();
    const size_t num_nodes =
        idx != nullptr && !idx->dirty() ? idx->num_nodes() : 0;
    if (num_nodes >= 2) {
      constexpr size_t kLanes = 64;
      std::vector<uint32_t> nodes(2 * kLanes);
      for (uint32_t& u : nodes) {
        u = static_cast<uint32_t>(rng.Uniform(num_nodes));
      }
      std::vector<WordQuestion> questions(kLanes);
      for (size_t i = 0; i < kLanes; ++i) {
        questions[i] = {{&nodes[2 * i], 1}, {&nodes[2 * i + 1], 1}};
      }

      // Calibrate the repetition count on the scalar path (>= 10 ms), then
      // take the best of three timed runs for each path.
      size_t scalar_true = 0;
      size_t iters = 1;
      for (;;) {
        StopWatch w;
        for (size_t it = 0; it < iters; ++it) {
          scalar_true = 0;
          for (const WordQuestion& q : questions) {
            scalar_true += idx->Reaches(q.sources[0], q.targets[0]);
          }
        }
        if (w.ElapsedMs() >= 10.0 || iters >= (size_t{1} << 22)) break;
        iters *= 2;
      }
      double scalar_ms = 0, sweep_ms = 0;
      std::vector<uint8_t> answers;
      for (int rep = 0; rep < 3; ++rep) {
        StopWatch w;
        for (size_t it = 0; it < iters; ++it) {
          size_t trues = 0;
          for (const WordQuestion& q : questions) {
            trues += idx->Reaches(q.sources[0], q.targets[0]);
          }
          PEREACH_CHECK_EQ(trues, scalar_true);
        }
        const double ms = w.ElapsedMs() / static_cast<double>(iters);
        scalar_ms = rep == 0 ? ms : std::min(scalar_ms, ms);
      }
      const size_t depth_before = idx->sweep_depth();
      idx->AnswerBatch(questions, &answers);
      const size_t word_depth = idx->sweep_depth() - depth_before;
      size_t sweep_true = 0;
      for (uint8_t a : answers) sweep_true += a;
      PEREACH_CHECK_EQ(sweep_true, scalar_true);  // the two paths must agree
      for (int rep = 0; rep < 3; ++rep) {
        StopWatch w;
        for (size_t it = 0; it < iters; ++it) {
          idx->AnswerBatch(questions, &answers);
        }
        const double ms = w.ElapsedMs() / static_cast<double>(iters);
        sweep_ms = rep == 0 ? ms : std::min(sweep_ms, ms);
      }

      PrintHeader(
          "Coordinator core: 64 scalar Reaches vs one 64-lane word",
          {"path", "wall-ms/64q", "sweep-depth"});
      char depth_buf[16];
      std::snprintf(depth_buf, sizeof(depth_buf), "%zu", word_depth);
      PrintRow({"scalar x64", FormatMs(scalar_ms), "-"});
      PrintRow({"batch word", FormatMs(sweep_ms), depth_buf});

      metrics.emplace_back("reach_coord_scalar64_ms", scalar_ms);
      metrics.emplace_back("reach_coord_sweep64_ms", sweep_ms);
      metrics.emplace_back("reach_sweep_depth",
                           static_cast<double>(word_depth));
    } else {
      std::printf("\n(no glued graph at this scale; skipping the "
                  "coordinator-core word measurement)\n");
    }
  }

  WriteBenchJson(opts.json_path,
                 boundary_index ? "bench_batch+boundary-index" : "bench_batch",
                 metrics);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pereach

int main(int argc, char** argv) { return pereach::bench::Run(argc, argv); }
