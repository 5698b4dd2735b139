// Failure-injection tests: corrupted wire payloads, invariant-violating
// inputs, and API misuse must fail loudly (CHECK abort) or cleanly (Status),
// never silently corrupt an answer.

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/local_eval.h"
#include "src/engine/fragment_context.h"
#include "src/engine/partial_eval_engine.h"
#include "src/engine/site_runtime.h"
#include "src/fragment/fragmentation.h"
#include "src/graph/algorithms.h"
#include "src/graph/graph.h"
#include "src/index/boundary_dist_index.h"
#include "src/index/boundary_index.h"
#include "src/net/cluster.h"
#include "src/net/supervisor.h"
#include "src/net/transport.h"
#include "src/net/worker_loop.h"
#include "src/regex/canonical.h"
#include "src/regex/regex.h"
#include "src/server/query_server.h"
#include "src/util/serialization.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::MakeGraph;
using testing_util::MakePaperExample;
using testing_util::PaperExample;

TEST(FailureTest, DecoderOverrunAborts) {
  Encoder enc;
  enc.PutU8(1);
  std::vector<uint8_t> buf = enc.TakeBuffer();
  Decoder dec(buf);
  (void)dec.GetU8();  // consume the only byte
  EXPECT_DEATH((void)dec.GetU8(), "CHECK failed");
}

TEST(FailureTest, TruncatedVarintAborts) {
  std::vector<uint8_t> buf = {0x80, 0x80};  // continuation bits, no terminator
  Decoder dec(buf);
  EXPECT_DEATH((void)dec.GetVarint(), "CHECK failed");
}

TEST(FailureTest, OverlongVarintAborts) {
  std::vector<uint8_t> buf(11, 0x80);  // more than 64 bits of continuation
  buf.push_back(0x01);
  Decoder dec(buf);
  EXPECT_DEATH((void)dec.GetVarint(), "CHECK failed");
}

TEST(FailureTest, TruncatedStringAborts) {
  Encoder enc;
  enc.PutVarint(100);  // declares 100 bytes, provides none
  std::vector<uint8_t> buf = enc.TakeBuffer();
  Decoder dec(buf);
  EXPECT_DEATH((void)dec.GetString(), "CHECK failed");
}

TEST(FailureTest, CorruptedPartialAnswerAborts) {
  // Flip the oset count of a serialized rvset to a huge value: decoding must
  // hit the buffer bounds check rather than fabricate equations.
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  Encoder enc;
  LocalEvalReach(frag.fragment(0), ex.ann, ex.mark).Serialize(&enc);
  std::vector<uint8_t> buf = enc.TakeBuffer();
  buf[1] = 0xFF;  // corrupt the oset-size varint (site id is byte 0)
  buf[2] = 0x7F;
  Decoder dec(buf);
  EXPECT_DEATH(ReachPartialAnswer::Deserialize(&dec), "CHECK failed");
}

// Every refresh round ships BoundaryRows: keyed by node for reach and
// dist, by PackNodeState pair for rpq. Its decoder checks content, not only
// framing: a component id past the fragment's component count fails a
// kStatus decode — the engine then rejects the batch and keeps the site
// dirty — instead of CHECK-aborting the coordinator.

// Each edit leaves a BoundaryRows serializable but breaks one invariant its
// decoder checks: every component id is below num_components().
void EdgeTargetPastCount(BoundaryRows* rows) {
  rows->targets.back() = static_cast<uint32_t>(rows->num_components());
}

void OsetCompPastCount(BoundaryRows* rows) {
  rows->oset_comp.back() = static_cast<uint32_t>(rows->num_components());
}

void InCompPastCount(BoundaryRows* rows) {
  rows->in_comp.back() = static_cast<uint32_t>(rows->num_components());
}

using ReachRowsEdit = void (*)(BoundaryRows*);

std::vector<ReachRowsEdit> ReachRowsEdits() {
  return {EdgeTargetPastCount, OsetCompPastCount, InCompPastCount};
}

TEST(FailureTest, ReachRowsDecoderRejectsEveryBrokenInvariant) {
  const std::vector<ReachRowsEdit> edits = ReachRowsEdits();
  for (const bool pair_keyed : {false, true}) {
    // Node keys, or the same boundary as (node, state) product pairs.
    const auto key = [pair_keyed](NodeId v, uint32_t state) {
      return pair_keyed ? PackNodeState(v, state) : uint64_t{v};
    };
    for (size_t i = 0; i < edits.size(); ++i) {
      SCOPED_TRACE(std::string(pair_keyed ? "pair" : "node") +
                   "-keyed edit " + std::to_string(i));
      BoundaryRows rows;
      rows.offsets = {0, 0, 1, 2};  // 2 -> 1 -> 0
      rows.targets = {0, 1};
      rows.oset_keys = {key(3, QueryAutomaton::kFinal)};
      rows.oset_comp = {0};
      rows.in_keys = {key(12, 2), key(14, 2)};
      rows.in_comp = {2, 1};
      edits[i](&rows);
      Encoder enc;
      rows.Serialize(&enc);
      Decoder dec(enc.buffer(), Decoder::OnError::kStatus);
      (void)BoundaryRows::Deserialize(&dec);
      EXPECT_FALSE(dec.ok());
      EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
    }
  }
}

TEST(FailureTest, GraphBuilderRejectsUnknownEndpoints) {
  GraphBuilder b;
  b.AddNodes(2);
  EXPECT_DEATH(b.AddEdge(0, 5), "CHECK failed");
  EXPECT_DEATH(b.AddEdge(7, 0), "CHECK failed");
}

TEST(FailureTest, GraphAccessorsRejectOutOfRange) {
  const Graph g = MakeGraph(3, {{0, 1}});
  EXPECT_DEATH(g.OutNeighbors(3), "CHECK failed");
  EXPECT_DEATH(g.label(5), "CHECK failed");
}

TEST(FailureTest, FragmentationRejectsShortPartition) {
  const Graph g = MakeGraph(4, {{0, 1}});
  const std::vector<SiteId> part = {0, 1};  // too short
  EXPECT_DEATH(Fragmentation::Build(g, part, 2), "CHECK failed");
}

TEST(FailureTest, FragmentationRejectsOutOfRangeSite) {
  const Graph g = MakeGraph(3, {{0, 1}});
  const std::vector<SiteId> part = {0, 1, 7};  // site 7 >= k=2
  EXPECT_DEATH(Fragmentation::Build(g, part, 2), "CHECK failed");
}

TEST(FailureTest, AutomatonRejectsOversizedRegexWithStatus) {
  Rng rng(1);
  const Regex big = Regex::Random(63, 4, &rng);  // 63 + 2 states > 64
  const Result<QueryAutomaton> r = QueryAutomaton::FromRegex(big);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The failure must be a value, not an abort: a Query built from the same
  // regex simply carries no automaton (QueryServer::Submit rejects it).
  EXPECT_FALSE(Query::Rpq(0, 1, big).automaton.has_value());
}

TEST(FailureTest, ResultValueOnErrorAborts) {
  Result<int> r(Status::NotFound("nope"));
  EXPECT_DEATH(r.value(), "CHECK failed");
}

TEST(FailureTest, RegexParseReportsPositionOfTrailingGarbage) {
  LabelDictionary dict;
  dict.Intern("A");
  const Result<Regex> r = Regex::Parse("A )", dict);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("offset"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Serving-transport failure injection. A deterministic harness stands in for
// the workers: each site is a unix-socket listener the coordinator connects
// to, and a scripted thread decides whether that site behaves (it runs the
// REAL worker loop, ServeConnection) or misbehaves (partial frames, silence).
// The contract under test: any transport failure rejects the affected batch
// with a Status and the process keeps serving — never an abort, never a
// wrong answer.

/// One unix-socket listener per fake site, plus the scripted threads.
/// Threads must be unblocked (their peer closed) before this leaves scope:
/// destroy the Cluster/QueryServer first.
class FakeWorkers {
 public:
  explicit FakeWorkers(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      std::string path = "/tmp/pereach_failure_" +
                         std::to_string(getpid()) + "_" + std::to_string(i) +
                         ".sock";
      unlink(path.c_str());
      const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
      PEREACH_CHECK(fd >= 0);
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      PEREACH_CHECK_LT(path.size(), sizeof(addr.sun_path));
      std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
      PEREACH_CHECK_EQ(
          bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
      PEREACH_CHECK_EQ(listen(fd, 4), 0);
      paths_.push_back(std::move(path));
      listeners_.push_back(fd);
    }
  }

  ~FakeWorkers() {
    for (std::thread& t : threads_) t.join();
    for (int fd : listeners_) close(fd);
    for (const std::string& p : paths_) unlink(p.c_str());
  }

  std::vector<std::string> Endpoints() const {
    std::vector<std::string> out;
    for (const std::string& p : paths_) out.push_back("unix:" + p);
    return out;
  }

  /// Accepts one connection on site `i`'s listener, bounded so a scripted
  /// thread can never block the test forever. -1 on timeout.
  int Accept(size_t i, int timeout_ms = 10000) {
    pollfd p{listeners_[i], POLLIN, 0};
    if (poll(&p, 1, timeout_ms) <= 0) return -1;
    return accept(listeners_[i], nullptr, nullptr);
  }

  /// Site `i` behaves: one connection served by the real worker loop.
  void ServeHealthy(size_t i) {
    threads_.emplace_back([this, i] {
      const int fd = Accept(i);
      if (fd >= 0) ServeConnection(fd);
    });
  }

  /// Site `i` runs an arbitrary script.
  void Run(std::function<void()> script) {
    threads_.emplace_back(std::move(script));
  }

 private:
  std::vector<std::string> paths_;
  std::vector<int> listeners_;
  std::vector<std::thread> threads_;
};

constexpr size_t kMaxFrame = TransportOptions{}.max_frame_bytes;

/// Hand-rolled well-formed ok reply (status 1, zero compute, the payload)
/// so a scripted site can pass the handshake before misbehaving.
void SendOkReply(int fd, const std::vector<uint8_t>& payload = {}) {
  Encoder body;
  body.PutU8(1);
  body.PutDouble(0.0);
  body.PutVarint(payload.size());
  body.PutRaw(payload);
  PEREACH_CHECK(WriteWireMessage(fd, body.buffer(), 1000).ok());
}

/// Serves one coordinator connection with the real site runtime, except
/// that `tamper` may rewrite each round's reply payload before it is sent:
/// the reply stays CRC-valid, only its content is forged.
void ServeTampered(
    int fd,
    const std::function<void(RoundKind, std::vector<uint8_t>*)>& tamper) {
  std::optional<Fragment> fragment;
  std::unique_ptr<FragmentContext> ctx;
  std::vector<uint8_t> req;
  while (ReadWireMessage(fd, 15000, kMaxFrame, &req).ok()) {
    Decoder dec(req);
    const auto type = static_cast<WireMessage>(dec.GetU8());
    // The coordinator closes right after kShutdown, without reading a reply.
    if (type == WireMessage::kShutdown) break;
    std::vector<uint8_t> payload;
    if (type == WireMessage::kRound) {
      const auto kind = static_cast<RoundKind>(dec.GetU8());
      const uint8_t aux = dec.GetU8();
      const std::vector<uint8_t> request(
          req.begin() + static_cast<ptrdiff_t>(dec.position()), req.end());
      payload =
          RunSiteRound(*fragment, ctx.get(), kind, aux, request).value();
      tamper(kind, &payload);
    } else {
      if (type == WireMessage::kHello) {
        (void)dec.GetU8();      // version
        (void)dec.GetVarint();  // site
      }
      fragment.emplace(Fragment::Deserialize(&dec));
      ctx = std::make_unique<FragmentContext>();
    }
    SendOkReply(fd, payload);
  }
  close(fd);
}

/// Rewrites one round's reply payload.
using PayloadEdit = std::function<void(std::vector<uint8_t>*)>;

/// One forged reply: the kind of round it answers, and the rewrite.
struct Forgery {
  RoundKind kind;
  PayloadEdit apply;
};

/// A refresh reply for one index (one rows frame) with `edit` applied to
/// its BoundaryRows.
PayloadEdit ForgeRows(void (*edit)(BoundaryRows*)) {
  return [edit](std::vector<uint8_t>* payload) {
    Decoder dec(*payload);
    Decoder frame = dec.GetFrame();
    BoundaryRows rows = BoundaryRows::Deserialize(&frame);
    edit(&rows);
    Encoder body;
    rows.Serialize(&body);
    Encoder reply;
    reply.PutFrame(body.buffer());
    *payload = reply.TakeBuffer();
  };
}

TransportOptions ConnectOptions(const FakeWorkers& workers) {
  TransportOptions opts;
  opts.backend = TransportBackend::kSocket;
  opts.connect = workers.Endpoints();
  opts.connect_timeout_ms = 500;
  opts.read_timeout_ms = 500;
  opts.max_retries = 0;
  opts.retry_backoff_ms = 1;
  // These tests script exact failure/recovery sequences, so self-healing is
  // pinned off: one attempt per round, no local degradation, no breaker.
  opts.round_retries = 0;
  opts.degrade_local = false;
  opts.breaker_threshold = 0;
  return opts;
}

std::vector<Query> SmallReachBatch() {
  return {Query::Reach(0, 10), Query::Reach(4, 2), Query::Reach(7, 7),
          Query::Reach(1, 8)};
}

// A worker that ships a truncated frame (declares 100 body bytes, sends 3,
// closes) fails that round with a Status; the next round reconnects and
// serves bit-identical answers — mid-stream corruption is a one-batch event.
TEST(TransportFailureTest, PartialFrameWriteRejectsBatchThenRecovers) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  FakeWorkers workers(3);
  workers.ServeHealthy(0);
  workers.ServeHealthy(1);
  workers.Run([&workers] {
    const int fd = workers.Accept(2);
    if (fd < 0) return;
    std::vector<uint8_t> req;
    PEREACH_CHECK(ReadWireMessage(fd, 5000, kMaxFrame, &req).ok());  // hello
    SendOkReply(fd);
    PEREACH_CHECK(ReadWireMessage(fd, 5000, kMaxFrame, &req).ok());  // round
    Encoder partial;
    partial.PutVarint(100);
    partial.PutRaw({1, 2, 3});
    const auto& bytes = partial.buffer();
    PEREACH_CHECK(write(fd, bytes.data(), bytes.size()) ==
                  static_cast<ssize_t>(bytes.size()));
    close(fd);
    // Recovery: the reconnect is a fresh hello on a fresh connection; from
    // here the site behaves.
    const int fd2 = workers.Accept(2);
    if (fd2 >= 0) ServeConnection(fd2);
  });

  {
    Cluster sim(&frag, NetworkModel(), /*num_threads=*/3);
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalEngine sim_engine(&sim);
    PartialEvalEngine engine(&cluster);
    const std::vector<Query> batch = SmallReachBatch();

    const BatchAnswer failed = engine.EvaluateBatch(batch);
    EXPECT_FALSE(failed.status.ok());

    const BatchAnswer expect = sim_engine.EvaluateBatch(batch);
    const BatchAnswer recovered = engine.EvaluateBatch(batch);
    ASSERT_TRUE(recovered.status.ok());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(recovered.answers[i].reachable, expect.answers[i].reachable);
    }
  }  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins
}

// A worker that goes silent mid-round trips the read deadline: the batch
// rejects after ~read_timeout_ms instead of hanging the dispatcher forever.
TEST(TransportFailureTest, SilentWorkerTripsReadDeadline) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  FakeWorkers workers(3);
  workers.ServeHealthy(0);
  workers.ServeHealthy(1);
  workers.Run([&workers] {
    const int fd = workers.Accept(2);
    if (fd < 0) return;
    std::vector<uint8_t> req;
    PEREACH_CHECK(ReadWireMessage(fd, 5000, kMaxFrame, &req).ok());  // hello
    SendOkReply(fd);
    (void)ReadWireMessage(fd, 5000, kMaxFrame, &req);  // round request
    // Say nothing. The coordinator's deadline expires and it closes the
    // connection, which unblocks this read and ends the script.
    (void)ReadWireMessage(fd, 15000, kMaxFrame, &req);
    close(fd);
  });

  {
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalEngine engine(&cluster);
    const BatchAnswer failed = engine.EvaluateBatch(SmallReachBatch());
    EXPECT_FALSE(failed.status.ok());
  }
}

// End-to-end serving recovery: SIGKILL a spawned worker under a live
// QueryServer. The in-flight batch's queries resolve rejected with
// kTransportError (counted in the metrics registry), and the next
// submission is served again off a respawned worker — the server never
// stops serving.
TEST(TransportFailureTest, ServerRejectsKilledWorkerBatchAndKeepsServing) {
  const PaperExample ex = MakePaperExample();
  Graph g = ex.graph;
  IncrementalReachIndex index(std::move(g), ex.partition, 3);
  ServerOptions options;
  options.transport.backend = TransportBackend::kSocket;
  options.transport.read_timeout_ms = 2000;
  // Recovery pinned off: this test asserts the documented opt-out behavior
  // (kill → one rejected batch → next batch served off a respawn).
  options.transport.round_retries = 0;
  options.transport.degrade_local = false;
  options.transport.breaker_threshold = 0;
  QueryServer server(&index, options);

  const ServedAnswer first = server.Submit(Query::Reach(ex.ann, ex.mark)).get();
  ASSERT_FALSE(first.rejected);
  EXPECT_TRUE(first.answer.reachable);

  std::vector<int> pids = server.cluster()->transport()->WorkerPidsForTest();
  ASSERT_EQ(pids.size(), 3u);
  kill(pids[0], SIGKILL);

  const ServedAnswer rejected =
      server.Submit(Query::Reach(ex.ann, ex.mark)).get();
  EXPECT_TRUE(rejected.rejected);
  EXPECT_EQ(rejected.reject_reason, RejectReason::kTransportError);
  EXPECT_GE(server.Metrics().counter(CounterId::kRejectedTransport), 1u);

  const ServedAnswer again = server.Submit(Query::Reach(ex.ann, ex.mark)).get();
  ASSERT_FALSE(again.rejected);
  EXPECT_TRUE(again.answer.reachable);
  server.Stop();
}

// Stop() while a round is wedged on a silent worker: the read deadline
// bounds the dispatcher's block, every submitted future still resolves
// (rejected), and Stop returns — shutdown can never hang on a dead worker.
TEST(TransportFailureTest, StopDuringHungRoundDrainsCleanly) {
  const PaperExample ex = MakePaperExample();
  FakeWorkers workers(3);
  workers.ServeHealthy(0);
  workers.ServeHealthy(1);
  workers.Run([&workers] {
    const int fd = workers.Accept(2);
    if (fd < 0) return;
    std::vector<uint8_t> req;
    PEREACH_CHECK(ReadWireMessage(fd, 5000, kMaxFrame, &req).ok());  // hello
    SendOkReply(fd);
    // Swallow round requests silently until the coordinator gives up and
    // closes the connection.
    while (ReadWireMessage(fd, 15000, kMaxFrame, &req).ok()) {
    }
    close(fd);
  });

  {
    Graph g = ex.graph;
    IncrementalReachIndex index(std::move(g), ex.partition, 3);
    ServerOptions options;
    options.transport = ConnectOptions(workers);
    QueryServer server(&index, options);

    std::vector<std::future<ServedAnswer>> futures;
    for (const Query& q : SmallReachBatch()) {
      futures.push_back(server.Submit(q));
    }
    server.Stop();
    for (auto& f : futures) {
      const ServedAnswer served = f.get();  // must resolve, not hang
      EXPECT_TRUE(served.rejected);
    }
  }
}

/// Serves sites 0 and 1 with the real worker loop and site 2 through
/// `forgeries`, one per matching round in order; `applied` counts the ones
/// sent.
void ServeForgeries(FakeWorkers* workers, const std::vector<Forgery>* forgeries,
                    std::atomic<size_t>* applied) {
  workers->ServeHealthy(0);
  workers->ServeHealthy(1);
  workers->Run([=] {
    const int fd = workers->Accept(2);
    if (fd < 0) return;
    ServeTampered(fd, [&](RoundKind kind, std::vector<uint8_t>* payload) {
      const size_t next = applied->load();
      if (next < forgeries->size() && (*forgeries)[next].kind == kind) {
        (*forgeries)[next].apply(payload);
        applied->store(next + 1);
      }
    });
  });
}

/// Runs `batch` once per forgery — each must be rejected with Corruption
/// after its forgery went out — then once more, served correctly: its one
/// query reachable, a dist query at `distance`.
void ExpectForgeriesRejected(const Fragmentation& frag,
                             const FakeWorkers& workers,
                             const PartialEvalOptions& options,
                             const std::vector<Query>& batch,
                             size_t num_forgeries,
                             const std::atomic<size_t>& applied,
                             uint64_t distance = kInfWeight) {
  Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                  ConnectOptions(workers));
  PartialEvalEngine engine(&cluster, options);
  for (size_t i = 0; i < num_forgeries; ++i) {
    const BatchAnswer rejected = engine.EvaluateBatch(batch);
    ASSERT_FALSE(rejected.status.ok()) << "forgery " << i;
    EXPECT_EQ(rejected.status.code(), StatusCode::kCorruption)
        << "forgery " << i << ": " << rejected.status.ToString();
    EXPECT_EQ(applied.load(), i + 1) << "forgery " << i << " never sent";
  }
  const BatchAnswer served = engine.EvaluateBatch(batch);
  ASSERT_TRUE(served.status.ok()) << served.status.ToString();
  EXPECT_TRUE(served.answers[0].reachable);
  if (batch[0].kind == QueryKind::kDist) {
    EXPECT_EQ(served.answers[0].distance, distance);
  }
}  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins

/// A one-query sweep reply: the honest endpoint frame holding both
/// endpoints, with `clear` cleared from its flag byte and, if `comp` is
/// given, its t-side component id replaced by `comp`.
PayloadEdit ForgeEndpointFrame(uint8_t clear, std::optional<uint64_t> comp) {
  return [clear, comp](std::vector<uint8_t>* payload) {
    Decoder dec(*payload);
    Decoder frame = dec.GetFrame();
    const uint8_t flags = frame.GetU8();
    ASSERT_EQ(flags, kFrameHasS | kFrameHasT);
    Encoder body;
    body.PutU8(static_cast<uint8_t>(flags & ~clear));
    body.PutVarint(frame.GetVarint());  // s-side component
    const uint64_t t_comp = frame.GetVarint();
    body.PutVarint(comp.value_or(t_comp));
    Encoder reply;
    reply.PutFrame(body.buffer());
    *payload = reply.TakeBuffer();
  };
}

// The reach index path checks reply content like the dist path: refresh
// rows naming a component past the fragment's count, and sweep component
// ids past the installed count or no NodeId at all (the label lookups
// CHECK-abort on those), each reject their batch with Corruption; the same
// query is then served.
TEST(TransportFailureTest, ForgedReachRepliesRejectBatchesNotProcess) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  // Both endpoints are stored at site 2, so it alone joins the sweep
  // rounds, and Pat reaches Mark only through other fragments.
  const std::vector<Query> batch = {Query::Reach(ex.pat, ex.mark)};
  ASSERT_EQ(frag.site_of(ex.pat), 2u);
  ASSERT_EQ(frag.site_of(ex.mark), 2u);

  const uint64_t installed =
      Condense(frag.fragment(2).local_graph()).scc.num_components;
  constexpr uint64_t kNoSuchId = uint64_t{1} << 40;  // not even a NodeId
  std::vector<Forgery> forgeries;
  for (const ReachRowsEdit edit : ReachRowsEdits()) {
    forgeries.push_back({RoundKind::kIndexRows, ForgeRows(edit)});
  }
  forgeries.push_back(
      {RoundKind::kIndexSweep, ForgeEndpointFrame(0, installed)});
  forgeries.push_back(
      {RoundKind::kIndexSweep, ForgeEndpointFrame(0, kNoSuchId)});
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  PartialEvalOptions options;
  options.reach_path = ReachAnswerPath::kBoundaryIndex;
  ExpectForgeriesRejected(frag, workers, options, batch, forgeries.size(),
                          applied);
}

// The dist index path checks reply content like its reach twin: refresh
// rows naming a component past the fragment's count, sweep node ids past
// the installed count or no NodeId at all (the search CHECK-aborts on
// those), and a frame missing its s-side or t-side flag each reject their
// batch with Corruption. A rejected refresh keeps the site dirty, so the
// next batch asks it again; the same query is then served with its
// distance.
TEST(TransportFailureTest, ForgedDistRepliesRejectBatchesNotProcess) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  // Both endpoints are stored at site 2, so it alone joins the sweep
  // rounds. Pat -> Jack -> Mat -> Fred -> Emmy -> Ross -> Mark: 6 hops.
  const std::vector<Query> batch = {Query::Dist(ex.pat, ex.mark, 8)};
  ASSERT_EQ(frag.site_of(ex.pat), 2u);
  ASSERT_EQ(frag.site_of(ex.mark), 2u);

  // The dist rows are the local graph: one component per local node.
  const uint64_t installed = frag.fragment(2).local_graph().NumNodes();
  constexpr uint64_t kNoSuchId = uint64_t{1} << 40;  // not even a NodeId
  constexpr RoundKind kSweep = RoundKind::kIndexSweep;
  std::vector<Forgery> forgeries;
  for (const ReachRowsEdit edit : ReachRowsEdits()) {
    forgeries.push_back({RoundKind::kIndexRows, ForgeRows(edit)});
  }
  forgeries.push_back({kSweep, ForgeEndpointFrame(0, installed)});
  forgeries.push_back({kSweep, ForgeEndpointFrame(0, kNoSuchId)});
  forgeries.push_back({kSweep, ForgeEndpointFrame(kFrameHasS, std::nullopt)});
  forgeries.push_back({kSweep, ForgeEndpointFrame(kFrameHasT, std::nullopt)});
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  PartialEvalOptions options;
  options.dist_path = DistAnswerPath::kBoundaryIndex;
  ExpectForgeriesRejected(frag, workers, options, batch, forgeries.size(),
                          applied, BfsDistance(ex.graph, ex.pat, ex.mark));
}

/// Renames the first virtual node to Tom, who is no in-node anywhere.
void NonBoundaryFirstOsetEntry(BoundaryRows* rows) {
  ASSERT_FALSE(rows->oset_keys.empty());
  rows->oset_keys.front() = 9;
}

// A forged oset table passes every decode check, so a glue edge may have
// no real copy to land on. Ensure() leaves that virtual copy's component a
// dead end, so lookups through it answer instead of aborting.
TEST(TransportFailureTest, ForgedReachOsetTableCannotAbort) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  ASSERT_EQ(frag.fragment(2).ToGlobal(
                static_cast<NodeId>(frag.fragment(2).num_local())),
            ex.jack);  // site 2's first virtual node, Pat's one exit
  std::vector<Forgery> forgeries;
  forgeries.push_back(
      {RoundKind::kIndexRows, ForgeRows(NonBoundaryFirstOsetEntry)});
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  {
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalOptions options;
    options.reach_path = ReachAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    const std::vector<Query> batch = {Query::Reach(ex.pat, ex.mark)};
    const BatchAnswer served = engine.EvaluateBatch(batch);
    EXPECT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_EQ(applied.load(), 1u);
  }  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins
}

// The dist twin of ForgedReachOsetTableCannotAbort: a forged oset table
// passes every decode check, so an edge into a virtual copy may have no
// real copy to land on. Ensure() leaves it on the virtual copy, an
// isolated node, so the search answers instead of aborting.
TEST(TransportFailureTest, ForgedDistOsetTableCannotAbort) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  ASSERT_EQ(frag.fragment(2).ToGlobal(
                static_cast<NodeId>(frag.fragment(2).num_local())),
            ex.jack);  // site 2's first virtual node, Pat's one exit
  std::vector<Forgery> forgeries;
  forgeries.push_back(
      {RoundKind::kIndexRows, ForgeRows(NonBoundaryFirstOsetEntry)});
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  {
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalOptions options;
    options.dist_path = DistAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    const std::vector<Query> batch = {Query::Dist(ex.pat, ex.mark, 8)};
    const BatchAnswer served = engine.EvaluateBatch(batch);
    EXPECT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_EQ(applied.load(), 1u);
  }  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins
}

// The rpq index path checks reply content like its reach twin: product
// rows naming a component past the fragment's count, and sweep component
// ids past the installed product count or no NodeId at all, each reject
// their batch with Corruption; the same query is then served.
TEST(TransportFailureTest, ForgedRpqRepliesRejectBatchesNotProcess) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  // Pat -> Jack (MK) -> Mat -> Fred -> Emmy -> Ross (HR) -> Mark.
  const Regex mk_hr = Regex::Parse("MK HR*", ex.labels).value();
  const std::vector<Query> batch = {Query::Rpq(ex.pat, ex.mark, mk_hr)};
  ASSERT_EQ(frag.site_of(ex.pat), 2u);
  ASSERT_EQ(frag.site_of(ex.mark), 2u);

  const CanonicalAutomaton canon = Canonicalize(*batch[0].automaton);
  FragmentContext ctx;
  const uint64_t installed =
      ctx.rpq_product(frag.fragment(2), canon.signature.key, canon.automaton)
          .cond.scc.num_components;
  constexpr uint64_t kNoSuchId = uint64_t{1} << 40;  // not even a NodeId
  std::vector<Forgery> forgeries;
  for (const ReachRowsEdit edit : ReachRowsEdits()) {
    forgeries.push_back({RoundKind::kIndexRows, ForgeRows(edit)});
  }
  forgeries.push_back(
      {RoundKind::kIndexSweep, ForgeEndpointFrame(0, installed)});
  forgeries.push_back(
      {RoundKind::kIndexSweep, ForgeEndpointFrame(0, kNoSuchId)});
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  PartialEvalOptions options;
  options.rpq_path = RpqAnswerPath::kBoundaryIndex;
  ExpectForgeriesRejected(frag, workers, options, batch, forgeries.size(),
                          applied);
}

/// A two-index refresh reply with `edit` applied to its second rows frame.
PayloadEdit ForgeSecondRows(ReachRowsEdit edit) {
  return [edit](std::vector<uint8_t>* payload) {
    Decoder dec(*payload);
    Decoder first = dec.GetFrame();
    Decoder second = dec.GetFrame();
    ASSERT_TRUE(dec.Done());
    std::vector<uint8_t> first_body(first.remaining());
    for (uint8_t& b : first_body) b = first.GetU8();
    BoundaryRows rows = BoundaryRows::Deserialize(&second);
    edit(&rows);
    Encoder second_body;
    rows.Serialize(&second_body);
    Encoder reply;
    reply.PutFrame(first_body);
    reply.PutFrame(second_body.buffer());
    *payload = reply.TakeBuffer();
  };
}

// A refresh reply whose first rows frame decodes and whose second does not
// leaves the first index with its rows installed and no dirty site, but not
// rebuilt. The next batch, routed to that index alone, runs no refresh
// round; it must still rebuild the index before its lookups instead of
// aborting on the stale graph.
TEST(TransportFailureTest, HalfInstalledRefreshIsRebuiltByTheNextBatch) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  const Query mk_hr =
      Query::Rpq(ex.pat, ex.mark, Regex::Parse("MK HR*", ex.labels).value());
  const Query mk =
      Query::Rpq(ex.pat, ex.mark, Regex::Parse("MK", ex.labels).value());
  const std::vector<Forgery> forgeries = {
      {RoundKind::kIndexRows, ForgeSecondRows(ReachRowsEdits().front())}};
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  {
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalOptions options;
    options.rpq_path = RpqAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    const BatchAnswer rejected =
        engine.EvaluateBatch(std::vector<Query>{mk_hr, mk});
    ASSERT_FALSE(rejected.status.ok());
    EXPECT_EQ(rejected.status.code(), StatusCode::kCorruption)
        << rejected.status.ToString();
    EXPECT_EQ(applied.load(), 1u);

    const BatchAnswer served =
        engine.EvaluateBatch(std::vector<Query>{mk_hr});
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_TRUE(served.answers[0].reachable);
    EXPECT_EQ(served.metrics.rounds, 1u);  // no refresh round ran
  }  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins
}

/// Drops the last frame of a refresh or sweep reply.
void DropLastFrame(std::vector<uint8_t>* payload) {
  Decoder dec(*payload);
  std::vector<std::vector<uint8_t>> frames;
  while (dec.remaining() > 0) {
    Decoder frame = dec.GetFrame();
    std::vector<uint8_t> body(frame.remaining());
    for (uint8_t& b : body) b = frame.GetU8();
    frames.push_back(std::move(body));
  }
  ASSERT_GE(frames.size(), 2u);
  frames.pop_back();
  Encoder reply;
  for (const std::vector<uint8_t>& body : frames) reply.PutFrame(body);
  *payload = reply.TakeBuffer();
}

// A refresh reply carries one rows frame per index that lists its site.
// Site 2, listed by the reach and the dist index, answers with the reach
// frame only: the batch is Corruption and no rows of that round are
// installed, so every site stays dirty in both indexes; the next batch
// asks again and is served.
TEST(TransportFailureTest, RowsReplyMissingAFrameKeepsSiteDirty) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  constexpr uint32_t kBound = 8;
  const std::vector<Query> batch = {Query::Reach(ex.pat, ex.mark),
                                    Query::Dist(ex.pat, ex.mark, kBound)};
  const std::vector<Forgery> forgeries = {
      {RoundKind::kIndexRows, DropLastFrame}};
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  {
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalOptions options;
    options.reach_path = ReachAnswerPath::kBoundaryIndex;
    options.dist_path = DistAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    const BatchAnswer rejected = engine.EvaluateBatch(batch);
    ASSERT_FALSE(rejected.status.ok());
    EXPECT_EQ(rejected.status.code(), StatusCode::kCorruption)
        << rejected.status.ToString();
    EXPECT_EQ(applied.load(), 1u);
    const std::vector<SiteId> all = {0, 1, 2};
    ASSERT_NE(engine.boundary_index(), nullptr);
    ASSERT_NE(engine.boundary_dist_index(), nullptr);
    EXPECT_EQ(engine.boundary_index()->DirtySites(), all);
    EXPECT_EQ(engine.boundary_dist_index()->DirtySites(), all);

    const BatchAnswer served = engine.EvaluateBatch(batch);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    EXPECT_TRUE(served.answers[0].reachable);
    EXPECT_EQ(served.answers[1].distance,
              BfsDistance(ex.graph, ex.pat, ex.mark));
    EXPECT_TRUE(engine.boundary_index()->DirtySites().empty());
    EXPECT_TRUE(engine.boundary_dist_index()->DirtySites().empty());
  }  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins
}

/// Appends a flag-only frame to a sweep reply: the frame a site answering
/// the whole batch would write for a query it stores no endpoint of.
void AppendFlagOnlyFrame(std::vector<uint8_t>* payload) {
  Encoder reply;
  reply.PutRaw(*payload);
  reply.PutFrame({0});
  *payload = reply.TakeBuffer();
}

// A sweep reply carries one frame per query its site was sent. Site 2 is
// sent two of the batch's three queries (Ann -> Walt has no endpoint
// there); it answers once with a frame appended for the query it was not
// sent, and once with its last frame dropped. Each batch is Corruption,
// and the next batch is served with the oracle's answers.
TEST(TransportFailureTest, SweepReplyFrameCountMustMatchTheSiteQueries) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  const std::vector<Query> batch = {Query::Reach(ex.pat, ex.mark),
                                    Query::Reach(ex.ann, ex.mark),
                                    Query::Reach(ex.ann, ex.walt)};
  ASSERT_EQ(frag.site_of(ex.pat), 2u);
  ASSERT_EQ(frag.site_of(ex.mark), 2u);
  ASSERT_NE(frag.site_of(ex.ann), 2u);
  ASSERT_NE(frag.site_of(ex.walt), 2u);
  const std::vector<Forgery> forgeries = {
      {RoundKind::kIndexSweep, AppendFlagOnlyFrame},
      {RoundKind::kIndexSweep, DropLastFrame}};
  std::atomic<size_t> applied{0};

  FakeWorkers workers(3);
  ServeForgeries(&workers, &forgeries, &applied);
  {
    Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3,
                    ConnectOptions(workers));
    PartialEvalOptions options;
    options.reach_path = ReachAnswerPath::kBoundaryIndex;
    PartialEvalEngine engine(&cluster, options);
    for (size_t i = 0; i < forgeries.size(); ++i) {
      const BatchAnswer rejected = engine.EvaluateBatch(batch);
      ASSERT_FALSE(rejected.status.ok()) << "forgery " << i;
      EXPECT_EQ(rejected.status.code(), StatusCode::kCorruption)
          << "forgery " << i << ": " << rejected.status.ToString();
      EXPECT_EQ(applied.load(), i + 1) << "forgery " << i << " never sent";
    }
    const BatchAnswer served = engine.EvaluateBatch(batch);
    ASSERT_TRUE(served.status.ok()) << served.status.ToString();
    for (size_t q = 0; q < batch.size(); ++q) {
      EXPECT_EQ(served.answers[q].reachable,
                Reaches(ex.graph, batch[q].source, batch[q].target))
          << "query " << q;
    }
  }  // cluster shutdown unblocks the fake workers before ~FakeWorkers joins
}

// ---------------------------------------------------------------------------
// Self-healing transport (DESIGN.md §13): the supervisor's breaker state
// machine, its repair re-queue loop, and end-to-end recovery through a live
// QueryServer — kill and unreachable-endpoint faults must be absorbed, not
// surfaced as rejections.

using BreakerState = WorkerSupervisor::BreakerState;

TEST(SupervisorTest, BreakerOpensHalfOpensAndCloses) {
  WorkerSupervisor sup(/*num_sites=*/1, /*threshold=*/2, /*open_ms=*/50);
  EXPECT_TRUE(sup.AllowRequest(0));
  sup.RecordFailure(0);
  EXPECT_EQ(sup.StateForTest(0), BreakerState::kClosed);  // below threshold
  EXPECT_TRUE(sup.AllowRequest(0));
  sup.RecordFailure(0);
  EXPECT_EQ(sup.StateForTest(0), BreakerState::kOpen);
  EXPECT_FALSE(sup.AllowRequest(0));  // open window refuses
  EXPECT_EQ(sup.OpenBreakers(), 1u);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(sup.AllowRequest(0));  // window elapsed: becomes the probe
  EXPECT_EQ(sup.StateForTest(0), BreakerState::kHalfOpen);
  EXPECT_FALSE(sup.AllowRequest(0));  // only one probe admitted

  sup.RecordSuccess(0);  // probe succeeded: breaker closes fully
  EXPECT_EQ(sup.StateForTest(0), BreakerState::kClosed);
  EXPECT_EQ(sup.OpenBreakers(), 0u);
  EXPECT_TRUE(sup.AllowRequest(0));
}

TEST(SupervisorTest, FailedHalfOpenProbeReopensBreaker) {
  WorkerSupervisor sup(/*num_sites=*/1, /*threshold=*/1, /*open_ms=*/50);
  sup.RecordFailure(0);
  EXPECT_EQ(sup.StateForTest(0), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_TRUE(sup.AllowRequest(0));  // half-open probe
  sup.RecordFailure(0);              // probe failed
  EXPECT_EQ(sup.StateForTest(0), BreakerState::kOpen);
  EXPECT_FALSE(sup.AllowRequest(0));  // fresh open window
}

TEST(SupervisorTest, RepairThreadRequeuesUntilSuccess) {
  WorkerSupervisor sup(/*num_sites=*/1, /*threshold=*/1, /*open_ms=*/5);
  std::atomic<int> calls{0};
  sup.Start([&calls](SiteId site) {
    PEREACH_CHECK_EQ(site, 0u);
    // Fail the first two repair attempts: each must be re-queued after the
    // backoff rather than dropped.
    return calls.fetch_add(1) >= 2;
  });
  sup.RecordFailure(0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (calls.load() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(calls.load(), 3);
  sup.Stop();
}

// Respawn under load: SIGKILL every spawned worker under a live QueryServer
// running the default self-healing options. Every subsequent submission must
// still be SERVED — in-round failover re-establishes (or degrades) without
// surfacing a single rejection — and the recovery shows up in the metrics.
TEST(TransportFailureTest, ServerAbsorbsKilledWorkersUnderLoad) {
  const PaperExample ex = MakePaperExample();
  Graph g = ex.graph;
  IncrementalReachIndex index(std::move(g), ex.partition, 3);
  ServerOptions options;
  options.transport.backend = TransportBackend::kSocket;
  options.transport.read_timeout_ms = 2000;
  QueryServer server(&index, options);

  const ServedAnswer first = server.Submit(Query::Reach(ex.ann, ex.mark)).get();
  ASSERT_FALSE(first.rejected);
  EXPECT_TRUE(first.answer.reachable);

  const std::vector<int> pids =
      server.cluster()->transport()->WorkerPidsForTest();
  ASSERT_EQ(pids.size(), 3u);
  for (const int pid : pids) kill(pid, SIGKILL);

  for (int i = 0; i < 4; ++i) {
    const ServedAnswer served =
        server.Submit(Query::Reach(ex.ann, ex.mark)).get();
    ASSERT_FALSE(served.rejected) << "submission " << i;
    EXPECT_TRUE(served.answer.reachable);
  }
  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(CounterId::kRejectedTransport), 0u);
  EXPECT_GT(snap.counter(CounterId::kTransportRetries) +
                snap.counter(CounterId::kTransportDegraded),
            0u);
  server.Stop();
}

// Degraded-round correctness through the server: every endpoint is
// unreachable, so with degrade_local on (the default) every site round is
// evaluated over the coordinator's fragment copy. Answers must be correct
// and the degradation visible in the metrics, including the breaker gauge.
TEST(TransportFailureTest, ServerDegradesLocallyWhenWorkersUnreachable) {
  const PaperExample ex = MakePaperExample();
  Graph g = ex.graph;
  IncrementalReachIndex index(std::move(g), ex.partition, 3);
  ServerOptions options;
  options.transport.backend = TransportBackend::kSocket;
  options.transport.connect = {"unix:/nonexistent/pereach-a.sock",
                               "unix:/nonexistent/pereach-b.sock",
                               "unix:/nonexistent/pereach-c.sock"};
  options.transport.connect_timeout_ms = 100;
  options.transport.max_retries = 0;
  options.transport.retry_backoff_ms = 1;
  options.transport.round_retries = 0;
  options.transport.breaker_threshold = 1;
  QueryServer server(&index, options);

  const ServedAnswer reach = server.Submit(Query::Reach(ex.ann, ex.mark)).get();
  ASSERT_FALSE(reach.rejected);
  EXPECT_TRUE(reach.answer.reachable);
  const ServedAnswer miss = server.Submit(Query::Reach(ex.mark, ex.ann)).get();
  ASSERT_FALSE(miss.rejected);
  EXPECT_FALSE(miss.answer.reachable);

  const MetricsSnapshot snap = server.Metrics();
  EXPECT_EQ(snap.counter(CounterId::kRejectedTransport), 0u);
  EXPECT_GT(snap.counter(CounterId::kTransportDegraded), 0u);
  EXPECT_GT(snap.gauge(GaugeId::kBreakersOpen), 0.0);
  server.Stop();
}

}  // namespace
}  // namespace pereach
