// bench_suite — the repository's fixed, oracle-checked benchmark.
//
// One process runs one of four serving workloads over the LiveJournal
// stand-in: it builds a QueryServer (set up several times, so the set-up
// time is a median), warms it, and drives it from closed-loop clients for a
// fixed window. Every answer is checked against the paper's visit guarantee
// and a seeded sample against the centralized oracle; any mismatch or
// violation exits non-zero. With --trace the window is split into an
// untraced and a traced half (their difference is the tracing overhead) and
// a replay then times calls into each src/ module's public functions on the
// same graph, options and observed batch sizes — the per-layer metrics.
// Every layer is measured from outside; nothing under src/ is instrumented.
//
//   bench_suite --workload=<name> --seed=<n> [--seconds=<s>] [--json=PATH]
//               [--trace=PATH] [--edge-list=PATH] [--inject-mismatch]
//   bench_suite --self-check
//
// README.md in this directory lists the workloads, every metric with its
// unit and bound, the layer -> metric map and the trace format.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/baselines/centralized.h"
#include "src/core/incremental.h"
#include "src/core/local_eval.h"
#include "src/engine/fragment_context.h"
#include "src/engine/partial_eval_engine.h"
#include "src/engine/site_runtime.h"
#include "src/fragment/partitioner.h"
#include "src/graph/generators.h"
#include "src/graph/graph_io.h"
#include "src/net/cluster.h"
#include "src/regex/canonical.h"
#include "src/regex/query_automaton.h"
#include "src/server/query_server.h"
#include "src/util/random.h"
#include "src/util/serialization.h"

namespace pereach {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

constexpr double kNa = std::numeric_limits<double>::quiet_NaN();

/// Nearest-rank percentile of an unsorted sample (sorts a copy); NaN when
/// the sample is empty, which the report prints as n/a.
double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return kNa;
  std::sort(sample.begin(), sample.end());
  const double position = p * static_cast<double>(sample.size() - 1);
  const size_t rank = static_cast<size_t>(position + 0.5);
  return sample[std::min(rank, sample.size() - 1)];
}

double Mean(const std::vector<double>& sample) {
  if (sample.empty()) return kNa;
  double sum = 0;
  for (double v : sample) sum += v;
  return sum / static_cast<double>(sample.size());
}

/// A JSON number with every significant digit, or null for NaN and the
/// infinities, which JSON cannot represent.
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A quoted JSON string with quotes, backslashes and control characters
/// escaped.
std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  out += '"';
  return out;
}

/// Named metrics in print order. A NaN value means the metric does not
/// apply to the workload (printed n/a, written null); `n` is the sample
/// count behind a percentile or mean (0 when not a sample statistic).
class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t n = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), n});
  }

  void Print(const char* title) const {
    std::printf("\n== %s ==\n", title);
    for (const Metric& m : metrics_) {
      if (!std::isfinite(m.value)) {
        std::printf("%-44s %14s %s\n", m.name.c_str(), "n/a", m.unit.c_str());
      } else if (m.n > 0) {
        std::printf("%-44s %14.6g %-6s n=%zu\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.n);
      } else {
        std::printf("%-44s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
  }

  /// {"name": {"value": v, "unit": u, "n": n}, ...}
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ", ";
      out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) +
             ", \"n\": " + std::to_string(m.n) + "}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    size_t n;
  };
  std::vector<Metric> metrics_;
};

/// Peak resident set (VmHWM) of a process ("self" or a pid), MB; NaN if
/// unreadable.
double PeakRssMb(const std::string& proc) {
  std::ifstream status("/proc/" + proc + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return kNa;
}

/// Returns freed heap to the kernel and restarts this process's peak-RSS
/// count (Linux clear_refs 5), so the next reading covers only what follows.
void ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------------------
// Spans: kept in memory per thread, written as Chrome trace events at exit
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double start_us;
  double dur_us;
  uint64_t id;
  uint64_t req;     // request id: a client query, an update, a replay batch
  uint64_t parent;  // id of the enclosing span, 0 for a root
};

/// One thread's spans. Threads never share a log, so recording takes no
/// lock; logs are merged after the threads join.
class SpanLog {
 public:
  SpanLog(uint32_t tid, Clock::time_point origin)
      : tid_(tid), origin_(origin) {}

  uint64_t NewId() { return (uint64_t{tid_} << 40) | ++next_id_; }

  void Add(const char* name, uint64_t id, Clock::time_point start,
           Clock::time_point end, uint64_t req, uint64_t parent) {
    spans_.push_back({name, Ms(start - origin_) * 1e3, Ms(end - start) * 1e3,
                      id, req, parent});
  }

  uint32_t tid() const { return tid_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t tid_;
  Clock::time_point origin_;
  uint64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Runs `fn`, records it as a span on `log` (when tracing) and returns its
/// wall time in ms.
template <typename Fn>
double Timed(SpanLog* log, const char* name, uint64_t req, uint64_t parent,
             Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  if (log != nullptr) log->Add(name, log->NewId(), start, end, req, parent);
  return Ms(end - start);
}

bool WriteChromeTrace(const std::string& path,
                      const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [", f);
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(f,
                   "%s\n{\"name\": %s, \"cat\": \"bench_suite\", \"ph\": "
                   "\"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"id\": %llu, \"req\": %llu, "
                   "\"parent\": %llu}}",
                   first ? "" : ",", JsonString(s.name).c_str(), log.tid(),
                   s.start_us, s.dur_us,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.req),
                   static_cast<unsigned long long>(s.parent));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  const bool write_ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && write_ok;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

constexpr size_t kSites = 8;
// The dataset (graph, partition, regex pool) is fixed; --seed draws the
// query endpoints and the writer's edges.
constexpr uint64_t kDatasetSeed = 42;
// Set-ups per run; setup_s is their median.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kRegexPool = 4;
constexpr auto kUpdatePeriod = std::chrono::milliseconds(250);
constexpr size_t kEdgesPerUpdate = 4;
// Answers per class checked against the centralized oracle.
constexpr size_t kOracleSamples = 400;

struct Workload {
  const char* name;
  double scale;           // MakeDataset scale of the LiveJournal stand-in
  bool random_partition;  // RandomPartitioner (the paper's default) vs chunk
  bool indexed;           // all three answer paths kBoundaryIndex vs kBes
  TransportBackend transport;
  size_t clients;  // closed-loop client threads
  bool mixed;      // 70/20/10 reach/dist/rpq instead of reach only
  bool writer;     // one open-loop writer: AddEdges every kUpdatePeriod
  double tail;     // the percentile reported as tail_ms
};

// Each workload stresses a different layer, so a change to one layer has a
// workload that exercises it and one that bypasses it. Load never exceeds
// four threads (clients + writer).
constexpr Workload kWorkloads[] = {
    // Cached rows and 64-lane sweeps make site compute tiny: the server
    // queue and the socket round trip dominate. A dist-sweep or BES change
    // should not move it.
    {"reach-serve", 0.02, false, true, TransportBackend::kSocket, 4, false,
     false, 0.99},
    // Indexed dist endpoint sweeps dominate while three dispatchers share
    // the cores. Scale 0.004: at 0.02 the dist and rpq warm-up alone takes
    // 14-23 s.
    {"mixed-serve", 0.004, false, true, TransportBackend::kSocket, 4, true,
     false, 0.99},
    // Writes beside reads on the reach path: AddEdges, SyncFragments and
    // the post-update index refresh land on read latency, so a read-side
    // gain that costs the writer shows here. Only a few reads in a
    // thousand wait behind an update, so p99 would sit on the edge between
    // stalled and free reads; its tail is p99.9, inside the stalled ones.
    {"update-serve", 0.004, false, true, TransportBackend::kSocket, 3, false,
     true, 0.999},
    // The paper's algorithms: random partition (largest boundary), BES on
    // every class, one query per round. localEval and BES solving do the
    // work the indexed workloads skip. One client gives too few samples for
    // p99, so its tail is p90.
    {"paper-bes", 0.004, true, false, TransportBackend::kSim, 1, true, false,
     0.90},
};

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

constexpr size_t kNumClasses = 3;
constexpr const char* kClassNames[kNumClasses] = {"reach", "dist", "rpq"};

bool Serves(const Workload& w, size_t cls) { return cls == 0 || w.mixed; }

/// Geo-distributed network model: 5 ms one-way latency, 25 MB/s shared
/// coordinator link (the figures' model, bench/bench_common.cc).
NetworkModel SuiteNetwork() {
  NetworkModel net;
  net.latency_ms = 5.0;
  net.bandwidth_mb_per_s = 25.0;
  return net;
}

PartialEvalOptions EvalOptions(const Workload& w) {
  PartialEvalOptions eval;
  // Closure form: warm serving rides the cached closure rows (Theorem 1's
  // O(|cond|) per-query site work), on every path.
  eval.form = EquationForm::kClosure;
  if (w.indexed) {
    eval.reach_path = ReachAnswerPath::kBoundaryIndex;
    eval.dist_path = DistAnswerPath::kBoundaryIndex;
    eval.rpq_path = RpqAnswerPath::kBoundaryIndex;
  }
  return eval;
}

ServerOptions MakeServerOptions(const Workload& w) {
  ServerOptions options;  // default adaptive BatchPolicy
  options.net = SuiteNetwork();
  options.eval = EvalOptions(w);
  options.transport.backend = w.transport;
  return options;
}

Result<Graph> LoadGraph(const Workload& w, const std::string& edge_list) {
  if (!edge_list.empty()) {
    Result<Graph> g = ReadEdgeList(edge_list);
    if (g.ok() && g.value().NumNodes() < 2) {
      return Status::InvalidArgument("the graph needs at least two nodes");
    }
    return g;
  }
  Rng rng(kDatasetSeed);
  return MakeDataset(Dataset::kLiveJournal, w.scale, &rng);
}

std::vector<SiteId> PartitionGraph(const Graph& g, const Workload& w) {
  Rng rng(kDatasetSeed + 1);
  if (w.random_partition) return RandomPartitioner().Partition(g, kSites, &rng);
  return ChunkPartitioner().Partition(g, kSites, &rng);
}

/// The regular queries' automata, fixed with the dataset: how costly a
/// regex is varies far more than anything else in the workload. One label:
/// the dataset generators label every node 0, so every regex of the pool
/// matches real paths.
std::vector<QueryAutomaton> MakeRegexPool() {
  Rng rng(kDatasetSeed + 2);
  std::vector<QueryAutomaton> pool;
  for (size_t i = 0; i < kRegexPool; ++i) {
    pool.push_back(
        QueryAutomaton::FromRegex(Regex::Random(3, 1, &rng)).value());
  }
  return pool;
}

/// One submitted query and what came back for it.
struct QueryRecord {
  QueryKind kind = QueryKind::kReach;
  NodeId s = 0;
  NodeId t = 0;
  uint32_t bound = 0;  // dist only
  uint32_t regex = 0;  // rpq only: index into the regex pool
  bool rejected = false;
  bool reachable = false;
  uint64_t distance = kInfWeight;
  uint64_t epoch = 0;
  double done_s = 0;         // answer time, seconds into the window
  double latency_ms = 0;     // client Submit -> answer
  double batch_wall_ms = 0;  // the batch window it was served in
  double modeled_ms = 0;     // amortized over the batch
  double traffic_bytes = 0;  // amortized over the batch
  size_t batch_size = 0;
  size_t rounds = 0;
  size_t max_visits = 0;
};

/// One load thread's queries. Mixed streams walk a fixed ten-slot cycle of
/// 7 reach, 2 dist and 1 rpq, dist bounds cycle 1..8 and regexes cycle
/// through the pool, so every run serves exactly the same mix; only the
/// endpoints come from the seed. Streams start at different slots.
class QueryStream {
 public:
  QueryStream(uint64_t seed, size_t stream, size_t n, bool mixed)
      : rng_(seed * 1000003 + stream), n_(n), mixed_(mixed),
        slot_(3 * stream) {}

  QueryRecord Next() {
    static constexpr char kCycle[] = "rrdrrqrdrr";
    QueryRecord r;
    r.s = static_cast<NodeId>(rng_.Uniform(n_));
    r.t = static_cast<NodeId>(rng_.Uniform(n_));
    const char kind = mixed_ ? kCycle[slot_++ % 10] : 'r';
    if (kind == 'd') {
      r.kind = QueryKind::kDist;
      r.bound = static_cast<uint32_t>(1 + dists_++ % 8);
    } else if (kind == 'q') {
      r.kind = QueryKind::kRpq;
      r.regex = static_cast<uint32_t>(rpqs_++ % kRegexPool);
    }
    return r;
  }

 private:
  Rng rng_;
  size_t n_;
  bool mixed_;
  size_t slot_;
  size_t dists_ = 0;
  size_t rpqs_ = 0;
};

Query ToQuery(const QueryRecord& r, const std::vector<QueryAutomaton>& pool) {
  switch (r.kind) {
    case QueryKind::kReach:
      return Query::Reach(r.s, r.t);
    case QueryKind::kDist:
      return Query::Dist(r.s, r.t, r.bound);
    case QueryKind::kRpq:
      break;
  }
  return Query::Rpq(r.s, r.t, pool[r.regex]);
}

// ---------------------------------------------------------------------------
// Set-up: generate, fragment, start the server and its workers, warm up
// ---------------------------------------------------------------------------

struct Stack {
  Graph graph;
  std::vector<SiteId> partition;
  std::unique_ptr<IncrementalReachIndex> index;
  std::unique_ptr<QueryServer> server;  // declared last: stops first
  double generate_s = 0;
  double fragment_s = 0;
  double warm_s = 0;
};

/// One query of every class the workload serves (every pool regex), so
/// the measured window starts with every index and cache built.
Status Warm(QueryServer* server, size_t n, const Workload& w,
            const std::vector<QueryAutomaton>& pool) {
  const NodeId last = static_cast<NodeId>(n - 1);
  std::vector<Query> warm = {Query::Reach(0, last)};
  if (w.mixed) {
    warm.push_back(Query::Dist(0, last, 8));
    for (const QueryAutomaton& a : pool) warm.push_back(Query::Rpq(0, last, a));
  }
  for (Query& q : warm) {
    if (server->Submit(std::move(q)).get().rejected) {
      return Status::Internal("warm-up query rejected");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Stack>> SetUp(const Workload& w,
                                     const std::string& edge_list,
                                     const std::vector<QueryAutomaton>& pool) {
  auto stack = std::make_unique<Stack>();
  Clock::time_point start = Clock::now();
  Result<Graph> graph = LoadGraph(w, edge_list);
  if (!graph.ok()) return graph.status();
  stack->graph = std::move(graph).value();
  stack->generate_s = Ms(Clock::now() - start) / 1e3;

  start = Clock::now();
  stack->partition = PartitionGraph(stack->graph, w);
  stack->index = std::make_unique<IncrementalReachIndex>(
      stack->graph, stack->partition, kSites);
  stack->fragment_s = Ms(Clock::now() - start) / 1e3;

  start = Clock::now();
  stack->server = std::make_unique<QueryServer>(stack->index.get(),
                                                MakeServerOptions(w));
  Status warm = Warm(stack->server.get(), stack->graph.NumNodes(), w, pool);
  if (!warm.ok()) return warm;
  stack->warm_s = Ms(Clock::now() - start) / 1e3;
  return stack;
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

struct UpdateRecord {
  std::vector<std::pair<NodeId, NodeId>> edges;
  uint64_t epoch = 0;
  double late_ms = 0;     // writer start minus the scheduled due time
  double latency_ms = 0;  // commit minus the scheduled due time
};

struct WindowResult {
  std::vector<QueryRecord> queries;
  std::vector<UpdateRecord> updates;
  double window_s = 0;   // the scheduled length
  double seconds = 0;    // until the last in-flight answer arrived
  size_t batches = 0;    // batches dispatched during the window
  size_t evaluated = 0;  // queries those batches answered
};

/// Closed-loop clients (each waits for its answer before sending again)
/// plus, for writer workloads, one open-loop writer on a fixed schedule.
/// `logs`, when non-null, receives one span log per load thread.
WindowResult RunWindow(QueryServer* server, size_t n, const Workload& w,
                       const std::vector<QueryAutomaton>& pool,
                       uint64_t stream_seed, double seconds,
                       Clock::time_point origin, std::vector<SpanLog>* logs) {
  std::vector<SpanLog> thread_logs;
  for (size_t c = 0; c <= w.clients; ++c) {
    thread_logs.emplace_back(static_cast<uint32_t>(c + 1), origin);
  }
  std::vector<std::vector<QueryRecord>> per_client(w.clients);
  WindowResult result;
  const ServerStats before = server->stats();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      QueryStream stream(stream_seed, c, n, w.mixed);
      SpanLog* log = logs != nullptr ? &thread_logs[c] : nullptr;
      std::vector<QueryRecord>& out = per_client[c];
      while (Clock::now() < deadline) {
        QueryRecord r = stream.Next();
        Query query = ToQuery(r, pool);
        const Clock::time_point sent = Clock::now();
        const ServedAnswer served =
            server->Submit(std::move(query), static_cast<TenantId>(c)).get();
        const Clock::time_point answered = Clock::now();
        r.done_s = Ms(answered - start) / 1e3;
        r.latency_ms = Ms(answered - sent);
        r.rejected = served.rejected;
        if (!served.rejected) {
          const RunMetrics& m = served.answer.metrics;
          const double batch = static_cast<double>(std::max<size_t>(
              1, served.batch_size));
          r.reachable = served.answer.reachable;
          r.distance = served.answer.distance;
          r.epoch = served.epoch;
          r.batch_wall_ms = m.wall_ms;
          r.modeled_ms = m.PerQueryModeledMs();
          r.traffic_bytes = static_cast<double>(m.traffic_bytes) / batch;
          r.batch_size = served.batch_size;
          r.rounds = m.rounds;
          r.max_visits = m.MaxVisits();
        }
        if (log != nullptr) {
          log->Add("client.query", log->NewId(), sent, answered,
                   (uint64_t{c + 1} << 32) | out.size(), 0);
        }
        out.push_back(r);
      }
    });
  }
  if (w.writer) {
    threads.emplace_back([&] {
      Rng rng(stream_seed * 1000003 + 999);
      SpanLog* log = logs != nullptr ? &thread_logs[w.clients] : nullptr;
      for (size_t i = 1;; ++i) {
        const Clock::time_point due = start + i * kUpdatePeriod;
        if (due >= deadline) break;
        UpdateRecord u;
        for (size_t e = 0; e < kEdgesPerUpdate; ++e) {
          u.edges.emplace_back(static_cast<NodeId>(rng.Uniform(n)),
                               static_cast<NodeId>(rng.Uniform(n)));
        }
        std::this_thread::sleep_until(due);
        const Clock::time_point begin = Clock::now();
        u.epoch = server->AddEdges(u.edges);
        const Clock::time_point end = Clock::now();
        u.late_ms = Ms(begin - due);
        u.latency_ms = Ms(end - due);
        if (log != nullptr) {
          log->Add("writer.add_edges", log->NewId(), begin, end,
                   (uint64_t{999} << 32) | i, 0);
        }
        result.updates.push_back(std::move(u));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  result.window_s = seconds;
  result.seconds = Ms(Clock::now() - start) / 1e3;
  const ServerStats after = server->stats();
  result.batches = after.batches - before.batches;
  result.evaluated = after.queries - before.queries;
  for (std::vector<QueryRecord>& out : per_client) {
    result.queries.insert(result.queries.end(), out.begin(), out.end());
  }
  if (logs != nullptr) {
    for (SpanLog& log : thread_logs) logs->push_back(std::move(log));
  }
  return result;
}

// ---------------------------------------------------------------------------
// Correctness: the paper's visit guarantee on every answer, the centralized
// oracle on a seeded sample per class
// ---------------------------------------------------------------------------

struct CheckResult {
  size_t checked = 0;
  size_t mismatches = 0;
  size_t visit_violations = 0;
  size_t max_visits = 0;
};

/// The graph after the updates committed at or before `epoch`.
Graph GraphAtEpoch(const Graph& base, const std::vector<UpdateRecord>& updates,
                   uint64_t epoch) {
  GraphBuilder b;
  b.AddNodes(base.NumNodes());
  for (NodeId v = 0; v < base.NumNodes(); ++v) b.SetLabel(v, base.label(v));
  for (NodeId u = 0; u < base.NumNodes(); ++u) {
    for (NodeId v : base.OutNeighbors(u)) b.AddEdge(u, v);
  }
  for (const UpdateRecord& up : updates) {
    if (up.epoch > epoch) continue;
    for (const auto& [u, v] : up.edges) b.AddEdge(u, v);
  }
  return std::move(b).Build();
}

bool OracleAgrees(const Graph& g, const QueryRecord& r,
                  const std::vector<QueryAutomaton>& pool) {
  switch (r.kind) {
    case QueryKind::kReach:
      return CentralizedReach(g, r.s, r.t) == r.reachable;
    case QueryKind::kDist: {
      const uint32_t d = CentralizedDistance(g, r.s, r.t);
      const bool expected = d != kInfDistance && d <= r.bound;
      return expected == r.reachable && (!expected || r.distance == d);
    }
    case QueryKind::kRpq:
      break;
  }
  return CentralizedRegularReach(g, r.s, r.t, pool[r.regex]) == r.reachable;
}

CheckResult CheckAnswers(const Graph& base, std::vector<QueryRecord> records,
                         const std::vector<UpdateRecord>& updates,
                         const std::vector<QueryAutomaton>& pool,
                         const Workload& w, uint64_t seed,
                         bool inject_mismatch) {
  CheckResult result;
  // Theorems 1-3: every site is visited at most once per round; a BES
  // batch is one round, an indexed batch at most a refresh plus a sweep.
  const size_t max_rounds = w.indexed ? 2 : 1;
  std::array<std::vector<size_t>, kNumClasses> by_class;
  for (size_t i = 0; i < records.size(); ++i) {
    const QueryRecord& r = records[i];
    if (r.rejected) continue;
    result.max_visits = std::max(result.max_visits, r.max_visits);
    if (r.max_visits > r.rounds || r.rounds > max_rounds) {
      ++result.visit_violations;
    }
    by_class[static_cast<size_t>(r.kind)].push_back(i);
  }

  Rng rng(seed * 7 + 3);
  std::map<uint64_t, std::vector<size_t>> by_epoch;
  for (std::vector<size_t>& ids : by_class) {
    rng.Shuffle(&ids);
    if (ids.size() > kOracleSamples) ids.resize(kOracleSamples);
    for (size_t i : ids) by_epoch[records[i].epoch].push_back(i);
  }
  if (inject_mismatch && !by_epoch.empty()) {
    QueryRecord& r = records[by_epoch.begin()->second.front()];
    r.reachable = !r.reachable;
  }

  for (const auto& [epoch, ids] : by_epoch) {
    Graph at_epoch;
    if (!updates.empty()) at_epoch = GraphAtEpoch(base, updates, epoch);
    const Graph& g = updates.empty() ? base : at_epoch;
    const size_t workers = std::min<size_t>(4, ids.size());
    std::vector<size_t> wrong(workers, 0);
    std::vector<std::thread> threads;
    for (size_t k = 0; k < workers; ++k) {
      threads.emplace_back([&, k] {
        for (size_t j = k; j < ids.size(); j += workers) {
          if (!OracleAgrees(g, records[ids[j]], pool)) ++wrong[k];
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (size_t c : wrong) result.mismatches += c;
    result.checked += ids.size();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Replay: the traced run's per-layer measurements
// ---------------------------------------------------------------------------

// Batches per class, each evaluated on a sim and a socket engine.
constexpr size_t kReplayBatches = 24;
constexpr double kReplayClassBudgetMs = 4000;
// Reach batches also replayed through the path the workload does not serve
// (sweeps for BES workloads, localEval + BES for indexed ones).
constexpr size_t kCrossPathBatches = 4;
constexpr size_t kReplayUpdates = 4;

/// Per-class books of the replay.
struct ClassReplay {
  std::vector<double> sim_ms;       // EvaluateBatch, sim transport
  std::vector<double> socket_ms;    // EvaluateBatch, socket transport
  std::vector<double> critical_ms;  // per batch: the slowest site's calls
  std::vector<double> solve_ms_batch;  // per batch: summed BES solves
  std::vector<double> sweep_us;     // per endpoint Encode*SweepFrame call
  std::vector<double> local_eval_ms;  // per fragment LocalEval* call
  std::vector<double> solve_ms;     // per query AddToBes/AddToSystem+Evaluate
  double rounds = 0;
  double traffic_bytes = 0;
  double queries = 0;
  double equation_bytes = 0;
  double equations = 0;
  size_t solved = 0;
  double rows_build_ms = kNa;
};

/// Sites a batch's endpoint sweeps run on (the engine's sweep round).
std::vector<SiteId> EndpointSites(const Fragmentation& frag,
                                  const std::vector<const QueryRecord*>& b) {
  std::vector<SiteId> sites;
  for (const QueryRecord* r : b) {
    sites.push_back(frag.site_of(r->s));
    sites.push_back(frag.site_of(r->t));
  }
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

/// The indexed path's site work for one batch: every endpoint sweep the
/// engine's sweep round runs, timed per call. Returns the slowest site's
/// summed time (sites run in parallel).
double ReplaySweeps(const Fragmentation& frag, FragmentContextCache* probe,
                    const std::vector<const QueryRecord*>& batch,
                    const std::vector<CanonicalAutomaton>& canon,
                    ClassReplay* out, SpanLog* log, uint64_t req,
                    uint64_t parent) {
  double critical = 0;
  for (const SiteId site : EndpointSites(frag, batch)) {
    const Fragment& f = frag.fragment(site);
    FragmentContext& ctx = probe->Get(site);
    ctx.BeginRpqRound();
    double site_ms = 0;
    for (const QueryRecord* r : batch) {
      const bool endpoint =
          frag.site_of(r->s) == site || frag.site_of(r->t) == site;
      // The rpq round sends non-endpoint sites a flag byte, no sweep.
      if (r->kind == QueryKind::kRpq && !endpoint) continue;
      Encoder body;
      const double ms = Timed(log, "site.sweep", req, parent, [&] {
        switch (r->kind) {
          case QueryKind::kReach:
            EncodeBoundarySweepFrame(f, &ctx, r->s, r->t, &body);
            break;
          case QueryKind::kDist:
            EncodeDistSweepFrame(f, &ctx, r->s, r->t, r->bound, &body);
            break;
          case QueryKind::kRpq: {
            const CanonicalAutomaton& c = canon[r->regex];
            EncodeRpqSweepFrame(
                f, &ctx, ctx.rpq_product(f, c.signature.key, c.automaton),
                r->s, r->t, &body);
            break;
          }
        }
      });
      site_ms += ms;
      if (endpoint) out->sweep_us.push_back(ms * 1e3);
    }
    critical = std::max(critical, site_ms);
  }
  return critical;
}

/// The BES path's work for one batch: every fragment's localEval for every
/// query (one round), then one equation system per query at the
/// coordinator. Counts answers that disagree with `expected` (the engine's)
/// in *mismatches; returns {slowest site's summed time, summed solves}.
std::pair<double, double> ReplayBes(
    const Fragmentation& frag, FragmentContextCache* probe,
    const std::vector<const QueryRecord*>& batch,
    const std::vector<CanonicalAutomaton>& canon,
    const std::vector<QueryAnswer>& expected, ClassReplay* out,
    size_t* mismatches, SpanLog* log, uint64_t req, uint64_t parent) {
  const size_t k = frag.num_fragments();
  std::vector<std::vector<ReachPartialAnswer>> reach(batch.size());
  std::vector<std::vector<DistPartialAnswer>> dist(batch.size());
  std::vector<std::vector<RegularPartialAnswer>> rpq(batch.size());
  double critical = 0;
  for (SiteId site = 0; site < k; ++site) {
    const Fragment& f = frag.fragment(site);
    FragmentContext& ctx = probe->Get(site);
    double site_ms = 0;
    for (size_t qi = 0; qi < batch.size(); ++qi) {
      const QueryRecord& r = *batch[qi];
      Encoder body;
      const double ms = Timed(log, "site.local_eval", req, parent, [&] {
        switch (r.kind) {
          case QueryKind::kReach:
            reach[qi].push_back(ReachFromCachedRows(f, &ctx, r.s, r.t));
            reach[qi].back().SerializeBody(ctx.oset_globals(f).size(), &body);
            break;
          case QueryKind::kDist:
            dist[qi].push_back(LocalEvalDist(f, r.s, r.t, r.bound));
            dist[qi].back().Serialize(&body);
            break;
          case QueryKind::kRpq:
            rpq[qi].push_back(LocalEvalRegular(f, canon[r.regex].automaton,
                                               r.s, r.t, EquationForm::kClosure,
                                               &ctx.label_index(f)));
            rpq[qi].back().Serialize(&body);
            break;
        }
      });
      site_ms += ms;
      out->local_eval_ms.push_back(ms);
      out->equation_bytes += static_cast<double>(body.size());
    }
    critical = std::max(critical, site_ms);
  }

  double solve_total = 0;
  for (size_t qi = 0; qi < batch.size(); ++qi) {
    const QueryRecord& r = *batch[qi];
    bool reachable = false;
    uint64_t distance = kInfWeight;
    size_t equations = 0;
    const double ms = Timed(log, "coordinator.bes_solve", req, parent, [&] {
      if (r.kind == QueryKind::kDist) {
        DistanceEquationSystem system;
        for (const DistPartialAnswer& pa : dist[qi]) pa.AddToSystem(&system);
        distance = system.Evaluate(r.s);
        reachable = distance != kInfWeight && distance <= r.bound;
        equations = system.num_equations();
        return;
      }
      BooleanEquationSystem bes;
      if (r.kind == QueryKind::kReach) {
        for (SiteId site = 0; site < k; ++site) {
          reach[qi][site].AddToBes(
              probe->Get(site).oset_globals(frag.fragment(site)), &bes);
        }
        reachable = bes.Evaluate(r.s);
      } else {
        for (const RegularPartialAnswer& pa : rpq[qi]) pa.AddToBes(&bes);
        reachable = bes.Evaluate(PackNodeState(r.s, QueryAutomaton::kStart));
      }
      equations = bes.num_equations();
    });
    solve_total += ms;
    out->solve_ms.push_back(ms);
    out->equations += static_cast<double>(equations);
    ++out->solved;
    if (reachable != expected[qi].reachable ||
        (r.kind == QueryKind::kDist && reachable &&
         distance != expected[qi].distance)) {
      ++*mismatches;
    }
  }
  return {critical, solve_total};
}

/// Layer metrics of the replay, plus the answers it found inconsistent.
struct ReplayResult {
  std::array<ClassReplay, kNumClasses> classes;
  double spawn_s = kNa;
  std::vector<double> add_edges_ms, sync_ms, refresh_ms, recomputes;
  double context_builds = kNa;
  double index_rebuilds = kNa;
  double label_hit_frac = kNa;
  double dist_settled_per_search = kNa;
  double rpq_entry_hit_frac = kNa;
  double index_bytes = kNa;
  double worker_rss_mb = kNa;
  size_t mismatches = 0;
  size_t failures = 0;  // batches the engine could not evaluate
};

ReplayResult Replay(const Graph& g, const std::vector<SiteId>& partition,
                    const Workload& w, const std::vector<QueryAutomaton>& pool,
                    const std::vector<QueryRecord>& records, uint64_t seed,
                    SpanLog* log) {
  ReplayResult result;
  std::vector<CanonicalAutomaton> canon;
  for (const QueryAutomaton& a : pool) canon.push_back(Canonicalize(a));

  IncrementalReachIndex index(g, partition, kSites);
  const Fragmentation& frag = index.fragmentation();
  TransportOptions socket_transport;
  socket_transport.backend = TransportBackend::kSocket;
  Cluster sim(&frag, SuiteNetwork());
  Cluster socket(&frag, SuiteNetwork(), 0, socket_transport);
  PartialEvalEngine sim_engine(&sim, EvalOptions(w));
  PartialEvalEngine socket_engine(&socket, EvalOptions(w));
  PartialEvalEngine& served =
      w.transport == TransportBackend::kSocket ? socket_engine : sim_engine;
  size_t invalidations = 0;
  index.SetUpdateListener([&](SiteId site) {
    ++invalidations;
    sim_engine.InvalidateFragment(site);
    socket_engine.InvalidateFragment(site);
  });

  // Worker spawn + fragment shipping: the first socket batch minus the
  // first sim batch, both on cold engines.
  const NodeId last = static_cast<NodeId>(g.NumNodes() - 1);
  const Query first = Query::Reach(0, last);
  const double sim_first = Timed(log, "replay.first_batch.sim", 0, 0, [&] {
    (void)sim_engine.Evaluate(first);
  });
  const double socket_first =
      Timed(log, "replay.first_batch.socket", 0, 0,
            [&] { (void)socket_engine.Evaluate(first); });
  result.spawn_s = (socket_first - sim_first) / 1e3;
  if (w.mixed) {
    for (PartialEvalEngine* engine : {&sim_engine, &socket_engine}) {
      (void)engine->Evaluate(Query::Dist(0, last, 8));
      for (const QueryAutomaton& a : pool) {
        (void)engine->Evaluate(Query::Rpq(0, last, a));
      }
    }
  }

  // The batches: each class's answered queries, cut at the mean batch size
  // the window observed for that class.
  std::array<std::vector<std::vector<const QueryRecord*>>, kNumClasses>
      batches;
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    std::vector<const QueryRecord*> pool_c;
    double batch_count = 0;
    for (const QueryRecord& r : records) {
      if (r.rejected || static_cast<size_t>(r.kind) != cls) continue;
      // Trivial queries never reach a site.
      if (r.kind != QueryKind::kRpq && r.s == r.t) continue;
      pool_c.push_back(&r);
      batch_count +=
          1.0 / static_cast<double>(std::max<size_t>(1, r.batch_size));
    }
    if (pool_c.empty()) continue;
    const size_t size = std::clamp<size_t>(
        static_cast<size_t>(std::lround(pool_c.size() / batch_count)), 1, 64);
    for (size_t b = 0; b < kReplayBatches && (b + 1) * size <= pool_c.size();
         ++b) {
      batches[cls].emplace_back(pool_c.begin() + b * size,
                                pool_c.begin() + (b + 1) * size);
    }
    if (batches[cls].empty()) batches[cls].push_back(pool_c);
  }

  // Warm the bench-owned contexts the site calls run on, untimed: every
  // section a timed call reads, on every fragment.
  FragmentContextCache probe(&frag);
  for (SiteId site = 0; site < frag.num_fragments(); ++site) {
    const Fragment& f = frag.fragment(site);
    FragmentContext& ctx = probe.Get(site);
    (void)ctx.reach_rows(f);
    (void)ctx.oset_comp(f);
    if (!w.mixed) continue;
    (void)ctx.label_index(f);
    if (!w.indexed) continue;
    ctx.BeginRpqRound();
    for (const CanonicalAutomaton& c : canon) {
      (void)ctx.rpq_product(f, c.signature.key, c.automaton);
    }
  }

  uint64_t batch_id = 0;
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    ClassReplay& st = result.classes[cls];
    const Clock::time_point class_start = Clock::now();
    for (size_t bi = 0; bi < batches[cls].size(); ++bi) {
      if (bi > 0 && Ms(Clock::now() - class_start) > kReplayClassBudgetMs) {
        break;
      }
      const std::vector<const QueryRecord*>& b = batches[cls][bi];
      std::vector<Query> queries;
      for (const QueryRecord* r : b) queries.push_back(ToQuery(*r, pool));
      const uint64_t req = ++batch_id;
      const uint64_t root = log->NewId();
      const Clock::time_point root_start = Clock::now();

      BatchAnswer on_sim, on_socket;
      const auto run_sim = [&] {
        st.sim_ms.push_back(Timed(log, "engine.batch.sim", req, root, [&] {
          on_sim = sim_engine.EvaluateBatch(queries);
        }));
      };
      const auto run_socket = [&] {
        st.socket_ms.push_back(
            Timed(log, "engine.batch.socket", req, root,
                  [&] { on_socket = socket_engine.EvaluateBatch(queries); }));
      };
      // Alternate which transport goes first, so neither always runs on
      // caches the other just warmed.
      if (bi % 2 == 0) {
        run_sim();
        run_socket();
      } else {
        run_socket();
        run_sim();
      }
      if (!on_sim.status.ok() || !on_socket.status.ok()) {
        ++result.failures;
        continue;
      }
      for (size_t i = 0; i < queries.size(); ++i) {
        if (on_sim.answers[i].reachable != on_socket.answers[i].reachable ||
            on_sim.answers[i].distance != on_socket.answers[i].distance) {
          ++result.mismatches;
        }
      }
      st.rounds += static_cast<double>(on_sim.metrics.rounds);
      st.traffic_bytes += static_cast<double>(on_sim.metrics.traffic_bytes);
      st.queries += static_cast<double>(queries.size());

      if (w.indexed) {
        st.critical_ms.push_back(
            ReplaySweeps(frag, &probe, b, canon, &st, log, req, root));
        if (cls == 0 && bi < kCrossPathBatches) {
          (void)ReplayBes(frag, &probe, b, canon, on_sim.answers, &st,
                          &result.mismatches, log, req, root);
        }
      } else {
        const auto [critical, solve] =
            ReplayBes(frag, &probe, b, canon, on_sim.answers, &st,
                      &result.mismatches, log, req, root);
        st.critical_ms.push_back(critical);
        st.solve_ms_batch.push_back(solve);
        if (cls == 0 && bi < kCrossPathBatches) {
          (void)ReplaySweeps(frag, &probe, b, canon, &st, log, req, root);
        }
      }
      log->Add("replay.batch", root, root_start, Clock::now(), req, 0);
    }
  }

  // Query-independent row builds on fresh contexts, summed over fragments.
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    if (!Serves(w, cls)) continue;
    double total = 0;
    for (SiteId site = 0; site < frag.num_fragments(); ++site) {
      const Fragment& f = frag.fragment(site);
      FragmentContext fresh;
      total += Timed(log, "site.rows_build", 0, 0, [&] {
        if (cls == 0) {
          (void)fresh.reach_rows(f);
        } else if (cls == 1) {
          (void)fresh.dist_rows(f);
        } else {
          fresh.BeginRpqRound();
          for (const CanonicalAutomaton& c : canon) {
            (void)fresh.rpq_product(f, c.signature.key, c.automaton);
          }
        }
      });
    }
    result.classes[cls].rows_build_ms =
        cls == 2 ? total / static_cast<double>(canon.size()) : total;
  }

  // Updates: AddEdges, SyncFragments, then one reach batch twice — the
  // first pays the post-update refresh, the second is steady state.
  if (!batches[0].empty()) {
    std::vector<Query> probe_batch;
    for (const QueryRecord* r : batches[0].front()) {
      probe_batch.push_back(ToQuery(*r, pool));
    }
    Rng rng(seed * 1000003 + 777);
    for (size_t u = 0; u < kReplayUpdates; ++u) {
      std::vector<std::pair<NodeId, NodeId>> edges;
      for (size_t e = 0; e < kEdgesPerUpdate; ++e) {
        edges.emplace_back(static_cast<NodeId>(rng.Uniform(g.NumNodes())),
                           static_cast<NodeId>(rng.Uniform(g.NumNodes())));
      }
      const size_t before = invalidations;
      const uint64_t req = ++batch_id;
      result.add_edges_ms.push_back(Timed(log, "core.add_edges", req, 0, [&] {
        index.AddEdges(edges);
      }));
      result.recomputes.push_back(
          static_cast<double>(invalidations - before));
      bool ok = true;
      result.sync_ms.push_back(Timed(log, "net.sync_fragments", req, 0, [&] {
        ok &= socket.SyncFragments().ok();
      }));
      const double first_ms =
          Timed(log, "engine.batch.post_update", req, 0, [&] {
            ok &= served.EvaluateBatch(probe_batch).status.ok();
          });
      const double steady_ms = Timed(log, "engine.batch.steady", req, 0, [&] {
        ok &= served.EvaluateBatch(probe_batch).status.ok();
      });
      if (&served != &sim_engine) {
        ok &= sim_engine.EvaluateBatch(probe_batch).status.ok();
      }
      if (!ok) ++result.failures;
      result.refresh_ms.push_back(first_ms - steady_ms);
    }
  }
  index.SetUpdateListener(nullptr);

  result.context_builds =
      static_cast<double>(sim_engine.context_cache().build_count());
  if (w.indexed) {
    double rebuilds = 0, bytes = 0;
    if (const BoundaryReachIndex* r = served.boundary_index()) {
      rebuilds += static_cast<double>(r->rebuild_count());
      bytes += static_cast<double>(r->ByteSize());
      const double decided = static_cast<double>(r->label_hits());
      const double total = decided + static_cast<double>(r->dfs_fallbacks()) +
                           static_cast<double>(r->sweep_lanes());
      if (total > 0) result.label_hit_frac = decided / total;
    }
    if (const BoundaryDistIndex* d = served.boundary_dist_index()) {
      rebuilds += static_cast<double>(d->rebuild_count());
      bytes += static_cast<double>(d->ByteSize());
      if (d->search_count() > 0) {
        result.dist_settled_per_search =
            static_cast<double>(d->settled_nodes()) /
            static_cast<double>(d->search_count());
      }
    }
    if (const BoundaryRpqIndex* p = served.boundary_rpq_index()) {
      rebuilds += static_cast<double>(p->total_rebuilds());
      bytes += static_cast<double>(p->ByteSize());
      const double lookups = static_cast<double>(p->hits() + p->misses());
      if (lookups > 0) {
        result.rpq_entry_hit_frac = static_cast<double>(p->hits()) / lookups;
      }
    }
    result.index_rebuilds = rebuilds;
    result.index_bytes = bytes;
  }
  std::vector<double> worker_rss_mb;
  for (int pid : socket.transport()->WorkerPidsForTest()) {
    const double mb = PeakRssMb(std::to_string(pid));
    if (std::isfinite(mb)) worker_rss_mb.push_back(mb);
  }
  result.worker_rss_mb = Percentile(worker_rss_mb, 1.0);
  return result;
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

struct ClassLatencies {
  std::array<std::vector<double>, kNumClasses> latency_ms;
  std::array<std::vector<double>, kNumClasses> wait_ms;
  std::vector<double> all_ms;
  size_t rejected = 0;
};

ClassLatencies Collect(const std::vector<QueryRecord>& records) {
  ClassLatencies c;
  for (const QueryRecord& r : records) {
    if (r.rejected) {
      ++c.rejected;
      continue;
    }
    const size_t cls = static_cast<size_t>(r.kind);
    c.latency_ms[cls].push_back(r.latency_ms);
    c.wait_ms[cls].push_back(r.latency_ms - r.batch_wall_ms);
    c.all_ms.push_back(r.latency_ms);
  }
  return c;
}

/// A percentile, n/a unless at least ten samples lie beyond it.
double SupportedPercentile(const std::vector<double>& sample, double p) {
  const double beyond = (1.0 - p) * static_cast<double>(sample.size());
  return beyond >= 10.0 - 1e-9 ? Percentile(sample, p) : kNa;
}

// Rates, medians and means are reported as their median over ten chunks
// of the window's answers (equal counts, in answer order): a stalled
// stretch of the window (a noisy neighbour on a shared host) then moves
// one chunk, not the run, and a slow workload still gets enough answers
// per chunk. Answers that arrive after the deadline are left out.
constexpr size_t kChunks = 10;

struct Chunk {
  double seconds = 0;  // since the previous chunk's last answer
  std::vector<const QueryRecord*> answers;
};

std::vector<Chunk> Chunks(const WindowResult& window) {
  std::vector<const QueryRecord*> done;
  for (const QueryRecord& r : window.queries) {
    if (!r.rejected && r.done_s <= window.window_s) done.push_back(&r);
  }
  std::sort(done.begin(), done.end(),
            [](const QueryRecord* a, const QueryRecord* b) {
              return a->done_s < b->done_s;
            });
  const size_t k = std::min(kChunks, done.size());
  std::vector<Chunk> chunks(k);
  double previous = 0;
  for (size_t i = 0; i < k; ++i) {
    const size_t begin = done.size() * i / k;
    const size_t end = done.size() * (i + 1) / k;
    chunks[i].answers.assign(done.begin() + begin, done.begin() + end);
    chunks[i].seconds = done[end - 1]->done_s - previous;
    previous = done[end - 1]->done_s;
  }
  return chunks;
}

template <typename Stat>
double ChunkMedian(const std::vector<Chunk>& chunks, Stat stat) {
  std::vector<double> values;
  for (const Chunk& c : chunks) {
    const double v = stat(c);
    if (std::isfinite(v)) values.push_back(v);
  }
  return Percentile(values, 0.50);
}

/// Chunk median of the mean of `field` over each chunk's answers.
template <typename Field>
double ChunkMean(const std::vector<Chunk>& chunks, Field field) {
  return ChunkMedian(chunks, [&](const Chunk& c) {
    double sum = 0;
    for (const QueryRecord* r : c.answers) sum += field(*r);
    return sum / static_cast<double>(c.answers.size());
  });
}

void ReportEndToEnd(const Workload& w, const WindowResult& window,
                    size_t wrong_answers,
                    const std::vector<double>& setup_s, double rss_mb,
                    Report* out) {
  const ClassLatencies c = Collect(window.queries);
  const size_t n = c.all_ms.size();
  const std::vector<Chunk> chunks = Chunks(window);
  const double qps = ChunkMedian(chunks, [](const Chunk& c) {
    return c.seconds > 0 ? static_cast<double>(c.answers.size()) / c.seconds
                         : kNa;
  });
  const double p50 = ChunkMedian(chunks, [](const Chunk& c) {
    std::vector<double> ms;
    for (const QueryRecord* r : c.answers) ms.push_back(r->latency_ms);
    return Percentile(ms, 0.50);
  });
  out->Add("qps", qps, "1/s", n);
  out->Add("p50_ms", p50, "ms", n);
  out->Add("p90_ms", SupportedPercentile(c.all_ms, 0.90), "ms", n);
  out->Add("p99_ms", SupportedPercentile(c.all_ms, 0.99), "ms", n);
  out->Add("tail_ms", Percentile(c.all_ms, w.tail), "ms", n);
  out->Add("mean_ms",
           ChunkMean(chunks, [](const QueryRecord& r) { return r.latency_ms; }),
           "ms", n);
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    out->Add(std::string(kClassNames[cls]) + "_p50_ms",
             Percentile(c.latency_ms[cls], 0.50), "ms",
             c.latency_ms[cls].size());
  }
  std::vector<double> update_ms;
  for (const UpdateRecord& u : window.updates) {
    update_ms.push_back(u.latency_ms);
  }
  out->Add("update_p50_ms", Percentile(update_ms, 0.50), "ms",
           update_ms.size());
  out->Add("modeled_ms_per_query",
           ChunkMean(chunks, [](const QueryRecord& r) { return r.modeled_ms; }),
           "ms", n);
  out->Add("traffic_bytes_per_query",
           ChunkMean(chunks,
                     [](const QueryRecord& r) { return r.traffic_bytes; }),
           "bytes", n);
  const size_t submitted = window.queries.size();
  out->Add("error_rate",
           submitted == 0 ? kNa
                          : static_cast<double>(c.rejected + wrong_answers) /
                                static_cast<double>(submitted),
           "frac", submitted);
  out->Add("setup_s", Percentile(setup_s, 0.50), "s", setup_s.size());
  out->Add("rss_mb", rss_mb, "MB");
}

void ReportServer(const WindowResult& window, const MetricsSnapshot& snap,
                  const CheckResult& check, Report* out) {
  const ClassLatencies c = Collect(window.queries);
  out->Add("server.batch_size_mean",
           window.batches == 0 ? kNa
                               : static_cast<double>(window.evaluated) /
                                     static_cast<double>(window.batches),
           "count", window.batches);
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const HistogramSnapshot& h = snap.histogram(static_cast<HistogramId>(
        static_cast<size_t>(HistogramId::kWallMsReach) + cls));
    out->Add(std::string("server.batch_wall_ms_p50.") + kClassNames[cls],
             h.count == 0 || c.latency_ms[cls].empty() ? kNa : h.p50, "ms",
             h.count);
  }
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    out->Add(std::string("server.wait_ms_p50.") + kClassNames[cls],
             Percentile(c.wait_ms[cls], 0.50), "ms", c.wait_ms[cls].size());
  }
  out->Add("server.rejected_total",
           static_cast<double>(snap.counter(CounterId::kQueriesRejected)),
           "count");
  out->Add("engine.max_site_visits_per_batch",
           static_cast<double>(check.max_visits), "count");
  out->Add("net.retries",
           static_cast<double>(snap.counter(CounterId::kTransportRetries)),
           "count");
  out->Add("net.respawns",
           static_cast<double>(snap.counter(CounterId::kTransportRespawns)),
           "count");
  out->Add("net.degraded",
           static_cast<double>(snap.counter(CounterId::kTransportDegraded)),
           "count");
  std::vector<double> late_ms;
  for (const UpdateRecord& u : window.updates) late_ms.push_back(u.late_ms);
  out->Add("load.update_late_ms_max", Percentile(late_ms, 1.0), "ms",
           late_ms.size());
}

void ReportReplay(const Workload& w, const ReplayResult& r, Report* out) {
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const ClassReplay& st = r.classes[cls];
    const std::string name = kClassNames[cls];
    const std::vector<double>& engine_ms =
        w.transport == TransportBackend::kSocket ? st.socket_ms : st.sim_ms;
    const double batches = static_cast<double>(engine_ms.size());
    out->Add("engine.batch_ms_p50." + name, Percentile(engine_ms, 0.50), "ms",
             engine_ms.size());
    out->Add("engine.rounds_per_batch." + name,
             batches == 0 ? kNa : st.rounds / batches, "count");
    out->Add("engine.traffic_bytes_per_query." + name,
             st.queries == 0 ? kNa : st.traffic_bytes / st.queries, "bytes");
    out->Add("engine.sweep_us_p50." + name, Percentile(st.sweep_us, 0.50),
             "us", st.sweep_us.size());
    out->Add("engine.rows_build_ms." + name, st.rows_build_ms, "ms");
    out->Add("net.transport_ms_per_batch." + name,
             Percentile(st.socket_ms, 0.50) - Percentile(st.sim_ms, 0.50),
             "ms", st.socket_ms.size());
    out->Add("core.local_eval_ms_p50." + name,
             Percentile(st.local_eval_ms, 0.50), "ms",
             st.local_eval_ms.size());
    out->Add("core.equation_bytes_per_query." + name,
             st.solved == 0
                 ? kNa
                 : st.equation_bytes / static_cast<double>(st.solved),
             "bytes", st.solved);
    out->Add("bes.solve_ms_p50." + name, Percentile(st.solve_ms, 0.50), "ms",
             st.solve_ms.size());
  }
  double equations = 0;
  size_t solved = 0;
  for (const ClassReplay& st : r.classes) {
    equations += st.equations;
    solved += st.solved;
  }
  out->Add("bes.equations_per_query",
           solved == 0 ? kNa : equations / static_cast<double>(solved),
           "count", solved);
  out->Add("engine.context_builds", r.context_builds, "count");
  out->Add("net.sync_ms_p50", Percentile(r.sync_ms, 0.50), "ms",
           r.sync_ms.size());
  out->Add("net.spawn_s", r.spawn_s, "s");
  out->Add("net.worker_rss_mb", r.worker_rss_mb, "MB");
  out->Add("index.refresh_ms_p50", Percentile(r.refresh_ms, 0.50), "ms",
           r.refresh_ms.size());
  out->Add("index.rebuilds", r.index_rebuilds, "count");
  out->Add("index.label_hit_frac", r.label_hit_frac, "frac");
  out->Add("index.dist_settled_per_search", r.dist_settled_per_search,
           "count");
  out->Add("index.rpq_entry_hit_frac", r.rpq_entry_hit_frac, "frac");
  out->Add("index.bytes", r.index_bytes, "bytes");
  out->Add("core.add_edges_ms_p50", Percentile(r.add_edges_ms, 0.50), "ms",
           r.add_edges_ms.size());
  out->Add("core.recomputes_per_update", Mean(r.recomputes), "count",
           r.recomputes.size());
}

/// Per class, the share of engine.batch_ms_p50 the timed site calls (the
/// slowest site's), BES solves and transport difference do not cover.
void PrintUnexplained(const Workload& w, const ReplayResult& r) {
  std::printf("\n== share of engine.batch_ms_p50 the spans leave unexplained "
              "==\n");
  for (size_t cls = 0; cls < kNumClasses; ++cls) {
    const ClassReplay& st = r.classes[cls];
    const bool socket = w.transport == TransportBackend::kSocket;
    const double batch = Percentile(socket ? st.socket_ms : st.sim_ms, 0.50);
    if (!std::isfinite(batch) || batch <= 0) {
      std::printf("%-44s %14s\n", kClassNames[cls], "n/a");
      continue;
    }
    double explained = Percentile(st.critical_ms, 0.50);
    if (!st.solve_ms_batch.empty()) {
      explained += Percentile(st.solve_ms_batch, 0.50);
    }
    if (socket) {
      explained += Percentile(st.socket_ms, 0.50) - Percentile(st.sim_ms, 0.50);
    }
    std::printf("%-44s %14.3f (batch %.3f ms, site calls + solves%s %.3f ms)\n",
                kClassNames[cls], 1.0 - explained / batch, batch,
                socket ? " + transport" : "", explained);
  }
}

// ---------------------------------------------------------------------------
// Flags, self-check, main
// ---------------------------------------------------------------------------

constexpr const char* kUsage =
    "usage: bench_suite --workload=<name> --seed=<n> [--seconds=<s>]\n"
    "                   [--json=PATH] [--trace=PATH] [--edge-list=PATH]\n"
    "                   [--inject-mismatch]\n"
    "       bench_suite --self-check\n"
    "workloads: reach-serve mixed-serve update-serve paper-bes\n";

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 20;
  std::string json_path;
  std::string trace_path;
  std::string edge_list;
  bool inject_mismatch = false;
  bool self_check = false;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view prefix, std::string* out) {
      if (arg.substr(0, prefix.size()) != prefix) return false;
      *out = std::string(arg.substr(prefix.size()));
      return true;
    };
    std::string v;
    if (value("--workload=", &flags->workload) ||
        value("--json=", &flags->json_path) ||
        value("--trace=", &flags->trace_path) ||
        value("--edge-list=", &flags->edge_list)) {
      continue;
    }
    if (value("--seed=", &v)) {
      char* end = nullptr;
      flags->seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') return false;
      flags->seed_set = true;
    } else if (value("--seconds=", &v)) {
      char* end = nullptr;
      flags->seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(flags->seconds > 0)) return false;
    } else if (arg == "--inject-mismatch") {
      flags->inject_mismatch = true;
    } else if (arg == "--self-check") {
      flags->self_check = true;
    } else {
      return false;
    }
  }
  return flags->self_check || (!flags->workload.empty() && flags->seed_set);
}

int SelfCheck() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-check failed: %s\n", what);
      ++failures;
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  expect(JsonNumber(inf) == "null", "+inf is written as null");
  expect(JsonNumber(-inf) == "null", "-inf is written as null");
  expect(JsonNumber(kNa) == "null", "nan is written as null");
  expect(std::strtod(JsonNumber(0.1).c_str(), nullptr) == 0.1,
         "finite values round-trip with all digits");
  expect(JsonString("a\"b\\c\n\x01") == "\"a\\\"b\\\\c\\n\\u0001\"",
         "names are escaped");
  Report report;
  report.Add("p99\"ms", inf, "ms", 3);
  expect(report.Json() ==
             "{\"p99\\\"ms\": {\"value\": null, \"unit\": \"ms\", \"n\": 3}}",
         "a report with a non-finite value is valid JSON");
  expect(Percentile({3, 1, 2}, 0.5) == 2, "median of three");
  expect(std::isnan(Percentile({}, 0.5)), "empty sample is n/a");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(Percentile(hundred, 0.99) == 99, "nearest-rank p99 of 1..100");
  expect(std::isnan(SupportedPercentile(hundred, 0.99)),
         "p99 of 100 samples has too few beyond it");
  expect(SupportedPercentile(hundred, 0.90) == 90, "p90 of 100 samples");
  std::printf("self-check: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (flags.self_check) return SelfCheck();
  const Workload* workload = FindWorkload(flags.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n%s", flags.workload.c_str(),
                 kUsage);
    return 2;
  }
  const Workload& w = *workload;
  const Clock::time_point origin = Clock::now();
  const std::vector<QueryAutomaton> pool = MakeRegexPool();

  // Set up several times: setup_s is the median. rss_mb is the peak of the
  // first set-up, in a fresh process: later ones start on whatever heap the
  // allocator kept from the stack before. The last stack serves.
  std::unique_ptr<Stack> stack;
  std::vector<double> setup_s, generate_s, fragment_s, warm_s;
  double rss_mb = kNa;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    stack.reset();
    ResetPeakRss();
    Result<std::unique_ptr<Stack>> made = SetUp(w, flags.edge_list, pool);
    if (!made.ok()) {
      std::fprintf(stderr, "bench_suite: set-up failed: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    stack = std::move(made).value();
    generate_s.push_back(stack->generate_s);
    fragment_s.push_back(stack->fragment_s);
    warm_s.push_back(stack->warm_s);
    setup_s.push_back(stack->generate_s + stack->fragment_s + stack->warm_s);
    if (i == 0) rss_mb = PeakRssMb("self");
  }
  const size_t n = stack->graph.NumNodes();
  std::printf("bench_suite %s seed=%llu: %zu nodes, %zu edges, %zu sites, "
              "%zu clients%s, %s transport, %s paths\n",
              w.name, static_cast<unsigned long long>(flags.seed), n,
              stack->graph.NumEdges(), kSites, w.clients,
              w.writer ? " + 1 writer" : "",
              w.transport == TransportBackend::kSocket ? "socket" : "sim",
              w.indexed ? "indexed" : "BES");

  // The measured window. Traced runs split it: an untraced half (the
  // end-to-end numbers) and a traced half replaying the same query stream;
  // their qps gap is the tracing overhead.
  const bool tracing = !flags.trace_path.empty();
  const double window_s = tracing ? flags.seconds / 2 : flags.seconds;
  WindowResult window = RunWindow(stack->server.get(), n, w, pool, flags.seed,
                                  window_s, origin, nullptr);
  const double serving_rss_mb = PeakRssMb("self");
  std::vector<SpanLog> logs;
  WindowResult traced;
  if (tracing) {
    traced = RunWindow(stack->server.get(), n, w, pool, flags.seed, window_s,
                       origin, &logs);
  }
  const MetricsSnapshot snap = stack->server->Metrics();
  stack->server.reset();

  WindowResult all = window;
  all.queries.insert(all.queries.end(), traced.queries.begin(),
                     traced.queries.end());
  all.updates.insert(all.updates.end(), traced.updates.begin(),
                     traced.updates.end());
  all.batches += traced.batches;
  all.evaluated += traced.evaluated;
  const CheckResult check =
      CheckAnswers(stack->graph, all.queries, all.updates, pool, w,
                   flags.seed, flags.inject_mismatch);

  Report e2e;
  ReportEndToEnd(w, window, check.mismatches, setup_s, rss_mb, &e2e);
  e2e.Print("end to end");

  Report layers;
  size_t replay_wrong = 0;
  size_t replay_failures = 0;
  if (tracing) {
    SpanLog& replay_log = logs.emplace_back(200, origin);
    const ReplayResult replay = Replay(stack->graph, stack->partition, w,
                                       pool, all.queries, flags.seed,
                                       &replay_log);
    replay_wrong = replay.mismatches;
    replay_failures = replay.failures;
    ReportServer(all, snap, check, &layers);
    ReportReplay(w, replay, &layers);
    layers.Add("setup.generate_s", Percentile(generate_s, 0.5), "s",
               generate_s.size());
    layers.Add("setup.fragment_s", Percentile(fragment_s, 0.5), "s",
               fragment_s.size());
    layers.Add("setup.warm_s", Percentile(warm_s, 0.5), "s", warm_s.size());
    layers.Add("server.peak_rss_mb", serving_rss_mb, "MB");
    const double qps_plain =
        static_cast<double>(Collect(window.queries).all_ms.size()) /
        window.seconds;
    const double qps_traced =
        static_cast<double>(Collect(traced.queries).all_ms.size()) /
        traced.seconds;
    layers.Add("trace.overhead_pct", (qps_plain - qps_traced) / qps_plain * 100,
               "%");
    layers.Print("per layer");
    PrintUnexplained(w, replay);
    if (!WriteChromeTrace(flags.trace_path, logs)) {
      std::fprintf(stderr, "bench_suite: cannot write --trace=%s\n",
                   flags.trace_path.c_str());
      return 1;
    }
  }

  size_t rejected = 0;
  for (const QueryRecord& r : all.queries) rejected += r.rejected ? 1 : 0;
  const size_t wrong = check.mismatches + check.visit_violations +
                       replay_wrong;
  const bool correct = wrong == 0;
  const size_t attempted = all.queries.size() + all.updates.size();
  const size_t failed = wrong + rejected + replay_failures;
  std::printf("\noracle: %zu answers checked, %zu mismatches; visit "
              "guarantee violations: %zu; replay mismatches: %zu\n",
              check.checked, check.mismatches, check.visit_violations,
              replay_wrong);
  std::printf("result: correct=%s attempted=%zu failed=%zu\n",
              correct ? "true" : "false", attempted, failed);

  if (!flags.json_path.empty()) {
    std::FILE* f = std::fopen(flags.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_suite: cannot write --json=%s\n",
                   flags.json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\": \"bench_suite\", \"workload\": %s, \"seed\": "
                 "%llu, \"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                 "\"end_to_end\": %s, \"per_layer\": %s}\n",
                 JsonString(w.name).c_str(),
                 static_cast<unsigned long long>(flags.seed),
                 correct ? "true" : "false", attempted, failed,
                 e2e.Json().c_str(), layers.Json().c_str());
    if (std::fclose(f) != 0) return 1;
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace pereach

int main(int argc, char** argv) { return pereach::bench::Run(argc, argv); }
