#ifndef PEREACH_NET_TRANSPORT_H_
#define PEREACH_NET_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/fragment/fragmentation.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace pereach {

class FragmentContextCache;

/// How a Cluster executes its communication rounds (DESIGN.md §13). Both
/// backends evaluate a site's share of a round the same way: they decode the
/// round's RoundSpec with site_runtime::RunSiteRound.
///
///  - kSim: every site runs RunSiteRound in process, on the pool, over the
///    coordinator's own fragment and the calling engine's context cache.
///    Zero-copy, fully deterministic, modeled cost only.
///  - kSocket: one pereach_worker process (or remote TCP endpoint) per
///    fragment; the coordinator scatters length-prefixed frames and gathers
///    replies per round. Real wall-clock serving.
enum class TransportBackend : uint8_t { kSim = 0, kSocket = 1 };

/// Deterministic fault injection for the socket transport (tests, chaos
/// benches). When enabled, each (round, site) pair draws from a pure hash
/// of `seed`, so a given plan replays the exact same fault schedule on
/// every run — the chaos differential depends on it. Faults fire on the
/// coordinator side of the wire, before/around the real exchange, so every
/// recovery path they trigger is the production one.
struct FaultPlan {
  /// Master switch; a default FaultPlan injects nothing.
  bool enabled = false;
  /// Seed of the per-(round, site) hash draw. Same seed, same schedule.
  uint64_t seed = 1;
  /// Probability in [0,1] that a given (round, site) attempt draws a fault;
  /// which fault is a second draw over {kill, hang, drop-frame,
  /// corrupt-crc, delay}.
  double rate = 0.0;
  /// Rounds before `first_round` are never faulted (lets caches warm).
  uint64_t first_round = 0;
  /// Guarantee mode for the acceptance bar: site s is force-killed exactly
  /// once, on the first attempt at round >= first_round + s, independent of
  /// `rate` — every worker dies at least once mid-serving.
  bool kill_each_site = false;
};

/// Construction-time knobs of the transport seam. Defaults select kSim.
struct TransportOptions {
  /// Which backend executes rounds (kSim, kSocket).
  TransportBackend backend = TransportBackend::kSim;
  /// kSocket spawn mode: path of the pereach_worker binary. Empty resolves
  /// to "pereach_worker" next to the running executable.
  std::string worker_binary;
  /// kSocket connect mode: one endpoint per site ("unix:PATH" or
  /// "host:port"), in site order. Empty means spawn workers locally over
  /// socketpairs instead.
  std::vector<std::string> connect;
  /// Deadline for establishing a worker connection (connect + handshake).
  int connect_timeout_ms = 2000;
  /// Deadline for reading one complete reply frame. The budget covers the
  /// whole message, not each blocked read, so a worker dripping one byte
  /// per poll cannot stretch a round past it.
  int read_timeout_ms = 10000;
  /// Bounded retry count for ESTABLISHING a connection (spawn or connect +
  /// handshake) within one attempt at a site's round share.
  int max_retries = 2;
  /// Base backoff between establishment retries; attempt i sleeps about i
  /// times this long, times a per-connection jitter in [0.5, 1.5) so a
  /// multi-worker restart doesn't retry in lockstep.
  int retry_backoff_ms = 50;
  /// Upper bound on one wire message's declared length. A peer announcing
  /// more is corrupt (or hostile) and is disconnected before any allocation.
  size_t max_frame_bytes = size_t{256} << 20;
  /// In-round failover: after a site's exchange fails, re-establish and
  /// re-dispatch that site's share up to this many extra times before
  /// degrading or failing. Rounds are idempotent given fragment state
  /// (DESIGN.md §13), so re-dispatch is always sound.
  int round_retries = 1;
  /// Whole-round wall deadline in SocketTransport::Execute, spanning every
  /// retry, backoff and re-establishment; also bounds the Stop() drain.
  /// <= 0 disables the cap.
  int round_deadline_ms = 20000;
  /// When a site's retries exhaust (or its breaker is open), evaluate that
  /// fragment's RoundSpec locally, exactly as kSim does, instead of failing
  /// the round. Answers are bit-identical by construction; the batch
  /// completes.
  bool degrade_local = true;
  /// Consecutive failures on one connection that trip its circuit breaker
  /// open (<= 0 disables the breaker).
  int breaker_threshold = 3;
  /// How long an open breaker rejects attempts before letting one probe
  /// through (half-open).
  int breaker_open_ms = 200;
  /// Deterministic fault injection (off by default).
  FaultPlan fault_plan;
};

/// What a round asks every listed site to do. Every backend evaluates it
/// with site_runtime::RunSiteRound: kSim in process, kSocket on its workers
/// after shipping `broadcast` verbatim. The three indexed query classes
/// share one round pair (DESIGN.md §13.1): an indexed batch of any class
/// mix costs at most a refresh round and a sweep round.
enum class RoundKind : uint8_t {
  kBatchEval = 0,   // multiplexed localEval/localEvald/localEvalr batch
  kIndexRows = 1,   // refresh: one rows frame per dirty (index, fragment)
  kIndexSweep = 2,  // endpoint sweeps of an indexed batch, every class
};

struct RoundSpec {
  RoundKind kind = RoundKind::kBatchEval;
  /// Kind-specific scalar: the EquationForm for kBatchEval, unused
  /// otherwise. Everything else a worker needs is derived from `broadcast`.
  uint8_t aux = 0;
  /// The round's broadcast payload, shipped verbatim to every listed site.
  /// The modeled books charge its size once per listed site; envelope bytes
  /// (kind, aux, framing, CRC) are never accounted — the model charges
  /// payloads, not transport overhead.
  std::vector<uint8_t> broadcast;
};

// --- Wire framing (kSocket) -------------------------------------------------
//
// A connection carries a sequence of messages, each:
//
//   varint body_length | body bytes | u32 CRC32(body)
//
// body_length is capped by TransportOptions::max_frame_bytes before any
// allocation, and the CRC gate means decoders past this layer only ever see
// byte-exact copies of what the peer encoded — residual corruption is a
// software bug, not a transport hazard. Message bodies start with a
// WireMessage tag; replies start with a status byte. See DESIGN.md §13.

// Bumped whenever a message or reply format changes, so a stale worker fails
// at Hello instead of decoding garbage. 5: dist refresh rows are one CSR
// row per in-node (WeightedBoundaryRows), with no groups or aliases.
inline constexpr uint8_t kWireVersion = 5;

enum class WireMessage : uint8_t {
  kHello = 0,     // u8 version, varint site, fragment bytes -> ok reply
  kRound = 1,     // u8 kind, u8 aux, broadcast bytes -> ok reply + payload
  kSync = 2,      // fragment bytes (post-update state) -> ok reply
  kShutdown = 3,  // empty                              -> ok reply, then exit
};

/// CRC32 (IEEE, reflected) over `size` bytes — the per-message integrity
/// gate of the socket framing. Table-driven, no hardware or library deps.
uint32_t WireCrc32(const uint8_t* data, size_t size);

/// Writes one framed message. `timeout_ms` bounds the WHOLE write — every
/// blocked send shares one deadline (<= 0: block indefinitely). Fails with
/// Internal on a closed or stuck peer; never raises SIGPIPE.
Status WriteWireMessage(int fd, const std::vector<uint8_t>& body,
                        int timeout_ms);

/// Reads one framed message into `*body`. `timeout_ms` bounds the WHOLE
/// message — a peer dripping one byte per poll cannot stretch it (<= 0:
/// block indefinitely). Fails with Internal on EOF/timeout and Corruption
/// on an oversized length or CRC mismatch.
Status ReadWireMessage(int fd, int timeout_ms, size_t max_frame_bytes,
                       std::vector<uint8_t>* body);

// --- The transport seam -----------------------------------------------------

/// Monotonic recovery counters plus the breaker gauge, sampled lock-free.
/// kSim reports all zeros; QueryServer::Metrics() imports these into the
/// server_transport_* metric families.
struct TransportHealth {
  uint64_t round_retries = 0;        // in-round re-dispatch attempts
  uint64_t worker_respawns = 0;      // re-establishments after first Hello
  uint64_t degraded_site_rounds = 0; // site-rounds evaluated degrade_local
  uint64_t breakers_open = 0;        // connections currently open/half-open
};

/// Executes communication rounds for a Cluster. Implementations are
/// thread-safe: the server's per-class dispatchers run overlapping rounds
/// against one transport.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Runs one round on `sites`: reply payload per listed site (in order)
  /// plus the maximum per-site compute time, for the modeled clock. On any
  /// site failure (dead/hung worker, corrupt frame, a spec that does not
  /// decode) returns a non-OK status and the round's replies must not be
  /// used. Sites evaluated in process (every site on kSim, degraded sites
  /// on kSocket) run RunSiteRound over the coordinator's fragment and
  /// `local`'s context for that site.
  virtual Status Execute(const std::vector<SiteId>& sites,
                         const RoundSpec& spec, FragmentContextCache* local,
                         std::vector<std::vector<uint8_t>>* replies,
                         double* max_compute_ms) = 0;

  /// Re-ships every fragment's post-update state to its site (worker-held
  /// fragment copies go stale when IncrementalReachIndex applies edges).
  /// No-op for kSim, which reads the coordinator's fragments directly. A
  /// site that cannot be synced is marked dead so its next round
  /// re-establishes with a fresh Hello — stale answers are impossible
  /// either way. Must not overlap with in-flight rounds (the server calls
  /// it under the writer-held epoch gate).
  virtual Status SyncFragments() { return Status::OK(); }

  /// Tears down connections and worker processes. Idempotent; also run by
  /// the destructor.
  virtual void Shutdown() {}

  /// kSocket spawn mode: pids of the live worker processes (test hook for
  /// failure injection). Empty for kSim and connect mode.
  virtual std::vector<int> WorkerPidsForTest() { return {}; }

  /// Recovery counters and breaker state (zeros for kSim).
  virtual TransportHealth Health() const { return {}; }
};

/// Builds the backend `options.backend` selects. `fragmentation` and `pool`
/// must outlive the transport.
std::unique_ptr<Transport> MakeTransport(const TransportOptions& options,
                                         const Fragmentation* fragmentation,
                                         ThreadPool* pool);

}  // namespace pereach

#endif  // PEREACH_NET_TRANSPORT_H_
