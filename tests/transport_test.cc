// Transport-seam tests: the fallible (kStatus) decode path every transport
// ingress uses, the socket wire framing, and backend equivalence — the
// socket backend must answer bit-identically to the simulated one.

#include "src/net/transport.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "src/engine/fragment_context.h"
#include "src/engine/partial_eval_engine.h"
#include "src/net/cluster.h"
#include "src/regex/canonical.h"
#include "src/regex/regex.h"
#include "src/util/serialization.h"
#include "tests/test_util.h"

namespace pereach {
namespace {

using testing_util::MakePaperExample;
using testing_util::PaperExample;
using testing_util::RandomMixedQuery;

// --- Decoder kStatus mode: corrupt frames become Status, never aborts ------

TEST(DecoderStatusModeTest, TruncatedVarintFailsWithStatus) {
  const std::vector<uint8_t> buf = {0x80, 0x80};  // continuation, no end
  Decoder dec(buf, Decoder::OnError::kStatus);
  EXPECT_EQ(dec.GetVarint(), 0u);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(dec.Done());
}

TEST(DecoderStatusModeTest, OversizedCountFailsBeforeAllocation) {
  Encoder enc;
  enc.PutVarint(uint64_t{1} << 40);  // declares ~10^12 elements, provides 0
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf, Decoder::OnError::kStatus);
  EXPECT_EQ(dec.GetCount(), 0u);
  EXPECT_FALSE(dec.ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kCorruption);
}

TEST(DecoderStatusModeTest, MidFrameEofFailsAndExhausts) {
  Encoder enc;
  enc.PutVarint(100);  // frame claims 100 bytes...
  enc.PutU8(0xAB);     // ...buffer holds 1
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf, Decoder::OnError::kStatus);
  Decoder frame = dec.GetFrame();
  EXPECT_FALSE(dec.ok());
  // The failed parent is exhausted: later reads return zero values instead
  // of touching the buffer, and the sub-decoder is empty.
  EXPECT_EQ(dec.remaining(), 0u);
  EXPECT_EQ(frame.remaining(), 0u);
  EXPECT_EQ(dec.GetU8(), 0u);
}

TEST(DecoderStatusModeTest, FirstErrorMessageWins) {
  const std::vector<uint8_t> buf = {0x80};  // truncated varint
  Decoder dec(buf, Decoder::OnError::kStatus);
  (void)dec.GetVarint();
  const std::string first = dec.status().ToString();
  (void)dec.GetString();  // would fail differently; must not overwrite
  EXPECT_EQ(dec.status().ToString(), first);
}

TEST(DecoderStatusModeTest, SubFrameInheritsStatusMode) {
  Encoder body;
  body.PutVarint(uint64_t{1} << 40);  // corrupt count inside the frame
  Encoder enc;
  enc.PutFrame(body.buffer());
  const std::vector<uint8_t> buf = enc.buffer();
  Decoder dec(buf, Decoder::OnError::kStatus);
  Decoder frame = dec.GetFrame();
  ASSERT_TRUE(dec.ok());  // the frame itself was well-formed
  EXPECT_EQ(frame.GetCount(), 0u);
  EXPECT_FALSE(frame.ok());  // the sub-decoder failed...
  EXPECT_TRUE(dec.ok());     // ...without poisoning the parent
}

// --- Socket wire framing ----------------------------------------------------

class WirePipeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) close(fds_[0]);
    if (fds_[1] >= 0) close(fds_[1]);
  }
  int fds_[2] = {-1, -1};
};

TEST_F(WirePipeTest, MessageRoundTrips) {
  std::vector<uint8_t> body = {1, 2, 3, 250, 251, 252};
  ASSERT_TRUE(WriteWireMessage(fds_[0], body, 1000).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(ReadWireMessage(fds_[1], 1000, 1 << 20, &got).ok());
  EXPECT_EQ(got, body);
}

TEST_F(WirePipeTest, CrcMismatchIsCorruption) {
  Encoder framed;
  const std::vector<uint8_t> body = {9, 9, 9};
  framed.PutVarint(body.size());
  framed.PutRaw(body);
  framed.PutU32(WireCrc32(body.data(), body.size()) ^ 1);  // flip one bit
  ASSERT_EQ(write(fds_[0], framed.buffer().data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  std::vector<uint8_t> got;
  const Status s = ReadWireMessage(fds_[1], 1000, 1 << 20, &got);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(WirePipeTest, OversizedLengthRejectedBeforeAllocation) {
  Encoder framed;
  framed.PutVarint(uint64_t{1} << 40);  // 1 TiB claim, no body
  ASSERT_EQ(write(fds_[0], framed.buffer().data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  std::vector<uint8_t> got;
  const Status s = ReadWireMessage(fds_[1], 1000, 1 << 20, &got);
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST_F(WirePipeTest, MidFrameEofIsError) {
  Encoder framed;
  framed.PutVarint(100);             // claims 100 bytes...
  framed.PutRaw({1, 2, 3});          // ...sends 3, then closes
  ASSERT_EQ(write(fds_[0], framed.buffer().data(), framed.size()),
            static_cast<ssize_t>(framed.size()));
  close(fds_[0]);
  fds_[0] = -1;
  std::vector<uint8_t> got;
  EXPECT_FALSE(ReadWireMessage(fds_[1], 1000, 1 << 20, &got).ok());
}

TEST_F(WirePipeTest, ReadDeadlineExpires) {
  std::vector<uint8_t> got;
  const Status s = ReadWireMessage(fds_[1], 50, 1 << 20, &got);
  EXPECT_EQ(s.code(), StatusCode::kInternal);
}

// The read deadline covers the WHOLE message: a peer dripping one byte per
// poll interval used to reset the clock on every blocked read, stretching
// one message to (timeout x body bytes). Now the drip trips the deadline on
// schedule.
TEST_F(WirePipeTest, DripFedMessageTripsWholeMessageDeadline) {
  const int writer_fd = fds_[0];
  std::thread writer([writer_fd] {
    Encoder length;
    length.PutVarint(64);  // declare a 64-byte body...
    (void)!send(writer_fd, length.buffer().data(), length.buffer().size(),
                MSG_NOSIGNAL);
    for (int i = 0; i < 64; ++i) {  // ...and drip it one byte per 50ms
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const uint8_t byte = 0;
      // MSG_NOSIGNAL: the reader closes its end once the deadline trips.
      if (send(writer_fd, &byte, 1, MSG_NOSIGNAL) != 1) break;
    }
  });
  std::vector<uint8_t> got;
  const auto start = std::chrono::steady_clock::now();
  const Status s = ReadWireMessage(fds_[1], 300, 1 << 20, &got);
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  // Generous bound: far below the ~3.2s a per-read deadline would allow.
  EXPECT_LT(elapsed_ms, 1500);
  close(fds_[1]);  // unblock the writer's next drip
  fds_[1] = -1;
  writer.join();
}

// --- Backend equivalence ----------------------------------------------------

std::vector<Query> MixedBatch(size_t n, size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Query> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(RandomMixedQuery(n, /*num_labels=*/3, &rng));
  }
  return batch;
}

void ExpectBackendMatchesSim(TransportBackend backend) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  TransportOptions opts;
  opts.backend = backend;
  Cluster sim(&frag, NetworkModel(), /*num_threads=*/3);
  Cluster real(&frag, NetworkModel(), /*num_threads=*/3, opts);
  PartialEvalEngine sim_engine(&sim);
  PartialEvalEngine real_engine(&real);

  const std::vector<Query> batch = MixedBatch(ex.graph.NumNodes(), 24, 7);
  const BatchAnswer a = sim_engine.EvaluateBatch(batch);
  const BatchAnswer b = real_engine.EvaluateBatch(batch);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(a.answers[i].reachable, b.answers[i].reachable) << "query " << i;
    EXPECT_EQ(a.answers[i].distance, b.answers[i].distance) << "query " << i;
  }
  // The modeled books charge payloads only, so they are identical across
  // backends — the wall clock is the only thing a real transport changes.
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.traffic_bytes, b.metrics.traffic_bytes);
}

TEST(TransportBackendTest, SocketSpawnAnswersAndBooksMatchSim) {
  ExpectBackendMatchesSim(TransportBackend::kSocket);
}

/// A refresh round asking `sites` for the reach index's rows (DESIGN.md
/// §13.1): each site is sent one index entry, kind kReach.
RoundSpec ReachRowsSpec(const std::vector<SiteId>& sites) {
  Encoder entry;
  entry.PutVarint(1);
  entry.PutU8(static_cast<uint8_t>(QueryKind::kReach));
  RoundSpec spec;
  spec.kind = RoundKind::kIndexRows;
  spec.payloads.assign(sites.size(), entry.buffer());
  return spec;
}

TEST(TransportBackendTest, SocketSpawnsOneWorkerPerFragment) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  TransportOptions opts;
  opts.backend = TransportBackend::kSocket;
  Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3, opts);

  // Connections establish lazily: no workers before the first round.
  EXPECT_TRUE(cluster.transport()->WorkerPidsForTest().empty());
  FragmentContextCache local(&frag);
  cluster.BeginQuery();
  const auto replies =
      cluster.TryRound({0, 1, 2}, ReachRowsSpec({0, 1, 2}), &local);
  cluster.EndQuery();
  ASSERT_TRUE(replies.ok());
  EXPECT_EQ(replies.value().size(), 3u);
  EXPECT_EQ(cluster.transport()->WorkerPidsForTest().size(), 3u);
}

TEST(TransportBackendTest, UnreachableEndpointFailsRoundWithoutAborting) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  TransportOptions opts;
  opts.backend = TransportBackend::kSocket;
  opts.connect = {"unix:/nonexistent/pereach-0.sock",
                  "unix:/nonexistent/pereach-1.sock",
                  "unix:/nonexistent/pereach-2.sock"};
  opts.connect_timeout_ms = 200;
  opts.max_retries = 1;
  opts.retry_backoff_ms = 1;
  // Pin recovery off: this test asserts the plain failure path.
  opts.round_retries = 0;
  opts.degrade_local = false;
  opts.breaker_threshold = 0;
  Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3, opts);
  FragmentContextCache local(&frag);
  cluster.BeginQuery();
  const auto replies =
      cluster.TryRound({0, 1, 2}, ReachRowsSpec({0, 1, 2}), &local);
  cluster.EndQuery();
  EXPECT_FALSE(replies.ok());
}

// The simulated backend decodes the same RoundSpec a worker does, so a spec
// that does not decode fails the round with Corruption — and, like any
// failed round, charges nothing to the window's books.
TEST(TransportBackendTest, SimRejectsUndecodableSpecWithoutCharging) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3);
  FragmentContextCache local(&frag);
  // Every site of the round is sent the same undecodable payload.
  const auto spec = [&frag](RoundKind kind,
                            const std::vector<uint8_t>& payload) {
    RoundSpec out;
    out.kind = kind;
    out.payloads.assign(frag.num_fragments(), payload);
    return out;
  };
  std::vector<RoundSpec> specs;

  RoundSpec bad_form = spec(RoundKind::kBatchEval, {0});  // zero queries
  bad_form.aux = static_cast<uint8_t>(EquationForm::kDag) + 1;
  specs.push_back(bad_form);

  // An unused round kind: the first value past kIndexSweep.
  specs.push_back(spec(static_cast<RoundKind>(3), {0}));

  // The batch broadcast both kBatchEval and kIndexSweep decode: a reach
  // query cut short, and an rpq batch whose table is cut inside the
  // automaton, is one entry short of a reference, declares an automaton
  // past the state limit, or is followed by a stray byte.
  const std::vector<size_t> one = {0};
  std::vector<uint8_t> reach =
      EncodeBatchBroadcast(std::vector<Query>{Query::Reach(ex.ann, ex.mark)},
                           one)
          .bytes;
  reach.pop_back();
  const Regex mk = Regex::Parse("MK", ex.labels).value();
  const std::vector<uint8_t> rpq =
      EncodeBatchBroadcast(std::vector<Query>{Query::Rpq(ex.pat, ex.mark, mk)},
                           one)
          .bytes;
  const size_t table = 5;  // varint 1 · kind · s · t · ref, all one byte
  ASSERT_EQ(rpq[table], 1u);
  std::vector<uint8_t> truncated_automaton = rpq;
  truncated_automaton.pop_back();
  std::vector<uint8_t> ref_past_table = rpq;
  ref_past_table[table - 1] = 1;
  // kMaxStates + 1 states, each with a one-byte label and an 8-byte mask.
  constexpr size_t kStates = QueryAutomaton::kMaxStates + 1;
  std::vector<uint8_t> too_many_states(rpq.begin(), rpq.begin() + table + 1);
  too_many_states.push_back(kStates);
  too_many_states.resize(too_many_states.size() + 9 * kStates, 0);
  std::vector<uint8_t> trailing = rpq;
  trailing.push_back(0);
  for (const RoundKind kind : {RoundKind::kBatchEval, RoundKind::kIndexSweep}) {
    for (const std::vector<uint8_t>* payload :
         {&reach, &truncated_automaton, &ref_past_table, &too_many_states,
          &trailing}) {
      specs.push_back(spec(kind, *payload));
    }
  }

  // The refresh payload: an index kind past kRpq, an rpq entry whose
  // automaton is cut short, and a stray byte after the entries.
  std::vector<uint8_t> rows = ReachRowsSpec({0, 1, 2}).payloads[0];
  std::vector<uint8_t> unknown_index = rows;
  unknown_index[1] = static_cast<uint8_t>(QueryKind::kRpq) + 1;
  Encoder rpq_rows;
  rpq_rows.PutVarint(1);
  rpq_rows.PutU8(static_cast<uint8_t>(QueryKind::kRpq));
  Canonicalize(*Query::Rpq(ex.pat, ex.mark, mk).automaton)
      .automaton.Serialize(&rpq_rows);
  std::vector<uint8_t> rows_truncated_automaton = rpq_rows.TakeBuffer();
  rows_truncated_automaton.pop_back();
  rows.push_back(0);
  for (std::vector<uint8_t>* payload :
       {&unknown_index, &rows_truncated_automaton, &rows}) {
    specs.push_back(spec(RoundKind::kIndexRows, *payload));
  }

  for (size_t i = 0; i < specs.size(); ++i) {
    cluster.BeginQuery();
    const auto replies = cluster.TryRoundAll(specs[i], &local);
    const RunMetrics books = cluster.EndQuery();
    ASSERT_FALSE(replies.ok()) << "spec " << i;
    EXPECT_EQ(replies.status().code(), StatusCode::kCorruption)
        << "spec " << i << ": " << replies.status().ToString();
    EXPECT_EQ(books.rounds, 0u);
    EXPECT_EQ(books.messages, 0u);
    EXPECT_EQ(books.traffic_bytes, 0u);
    EXPECT_EQ(books.modeled_ms, 0.0);
    for (size_t visits : books.site_visits) EXPECT_EQ(visits, 0u);
  }
}

// With degrade_local on (the default), the same unreachable endpoints do not
// fail the batch at all: every site round is evaluated over the coordinator's
// fragment copy, bit-identical to the simulated cluster.
TEST(TransportBackendTest, UnreachableEndpointDegradesLocallyByDefault) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  TransportOptions opts;
  opts.backend = TransportBackend::kSocket;
  opts.connect = {"unix:/nonexistent/pereach-0.sock",
                  "unix:/nonexistent/pereach-1.sock",
                  "unix:/nonexistent/pereach-2.sock"};
  opts.connect_timeout_ms = 100;
  opts.max_retries = 0;
  opts.retry_backoff_ms = 1;
  opts.round_retries = 0;
  opts.breaker_threshold = 1;  // open after the first failure
  Cluster sim(&frag, NetworkModel(), /*num_threads=*/3);
  Cluster real(&frag, NetworkModel(), /*num_threads=*/3, opts);
  PartialEvalEngine sim_engine(&sim);
  PartialEvalEngine real_engine(&real);

  const std::vector<Query> batch = MixedBatch(ex.graph.NumNodes(), 16, 23);
  const BatchAnswer a = sim_engine.EvaluateBatch(batch);
  const BatchAnswer b = real_engine.EvaluateBatch(batch);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(a.answers[i].reachable, b.answers[i].reachable) << "query " << i;
    EXPECT_EQ(a.answers[i].distance, b.answers[i].distance) << "query " << i;
  }
  // Degraded rounds still charge the modeled books identically.
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds);
  EXPECT_EQ(a.metrics.messages, b.metrics.messages);
  EXPECT_EQ(a.metrics.traffic_bytes, b.metrics.traffic_bytes);
  const TransportHealth health = real.transport()->Health();
  EXPECT_GT(health.degraded_site_rounds, 0u);
  EXPECT_GT(health.breakers_open, 0u);
}

// With recovery pinned off, killing a worker fails the in-flight round's
// queries, and the NEXT round transparently respawns — the pre-supervisor
// recovery story, kept as the documented opt-out.
TEST(TransportBackendTest, KilledWorkerFailsRoundThenRespawns) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  TransportOptions opts;
  opts.backend = TransportBackend::kSocket;
  opts.read_timeout_ms = 2000;
  opts.round_retries = 0;
  opts.degrade_local = false;
  opts.breaker_threshold = 0;
  Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3, opts);
  PartialEvalEngine engine(&cluster);

  const std::vector<Query> batch = MixedBatch(ex.graph.NumNodes(), 8, 11);
  const BatchAnswer before = engine.EvaluateBatch(batch);
  ASSERT_TRUE(before.status.ok());

  std::vector<int> pids = cluster.transport()->WorkerPidsForTest();
  ASSERT_EQ(pids.size(), 3u);
  kill(pids[1], SIGKILL);
  // The worker is dead but its connection looks healthy until used: the
  // next batch hits EOF mid-round and must reject, not abort.
  const BatchAnswer during = engine.EvaluateBatch(batch);
  EXPECT_FALSE(during.status.ok());

  // The round after that re-establishes (fresh spawn + Hello with the
  // current fragment) and serves bit-identical answers again.
  const BatchAnswer after = engine.EvaluateBatch(batch);
  ASSERT_TRUE(after.status.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(after.answers[i].reachable, before.answers[i].reachable);
    EXPECT_EQ(after.answers[i].distance, before.answers[i].distance);
  }
  const std::vector<int> respawned = cluster.transport()->WorkerPidsForTest();
  ASSERT_EQ(respawned.size(), 3u);
  EXPECT_NE(respawned[1], pids[1]);
}

// With default options the same kill is invisible to callers: the round that
// hits the dead connection re-establishes in place and re-dispatches, so the
// batch succeeds with bit-identical answers and no rejection at all.
TEST(TransportBackendTest, KilledWorkerRecoversInRound) {
  const PaperExample ex = MakePaperExample();
  const Fragmentation frag = Fragmentation::Build(ex.graph, ex.partition, 3);
  TransportOptions opts;
  opts.backend = TransportBackend::kSocket;
  opts.read_timeout_ms = 2000;
  Cluster cluster(&frag, NetworkModel(), /*num_threads=*/3, opts);
  PartialEvalEngine engine(&cluster);

  const std::vector<Query> batch = MixedBatch(ex.graph.NumNodes(), 8, 13);
  const BatchAnswer before = engine.EvaluateBatch(batch);
  ASSERT_TRUE(before.status.ok());

  const std::vector<int> pids = cluster.transport()->WorkerPidsForTest();
  ASSERT_EQ(pids.size(), 3u);
  for (const int pid : pids) kill(pid, SIGKILL);

  const BatchAnswer during = engine.EvaluateBatch(batch);
  ASSERT_TRUE(during.status.ok());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(during.answers[i].reachable, before.answers[i].reachable);
    EXPECT_EQ(during.answers[i].distance, before.answers[i].distance);
  }
  const TransportHealth health = cluster.transport()->Health();
  // Every recovery is visible in the health counters: either the round was
  // retried against a respawned worker or it was served by local degradation.
  EXPECT_GT(health.round_retries + health.degraded_site_rounds, 0u);
}

}  // namespace
}  // namespace pereach
