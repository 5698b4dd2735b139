#include "src/net/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstring>
#include <thread>

#include "src/engine/fragment_context.h"
#include "src/engine/site_runtime.h"
#include "src/net/supervisor.h"
#include "src/util/serialization.h"
#include "src/util/sync.h"
#include "src/util/timer.h"

namespace pereach {

uint32_t WireCrc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

namespace {

using WireClock = std::chrono::steady_clock;
using WireTime = WireClock::time_point;

/// Deadline of a whole wire message. `timeout_ms` <= 0 means no deadline
/// (the zero time_point), matching the blocking workers.
WireTime WireDeadline(int timeout_ms) {
  if (timeout_ms <= 0) return WireTime{};
  return WireClock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Milliseconds left until `deadline` for poll(2): -1 for "no deadline",
/// 0 once it passed (poll then reports an immediate timeout).
int RemainingMs(WireTime deadline) {
  if (deadline == WireTime{}) return -1;
  const int64_t left = std::chrono::duration_cast<std::chrono::milliseconds>(
                           deadline - WireClock::now())
                           .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<int64_t>(left, INT_MAX));
}

/// Waits until `fd` is ready for `events`. `timeout_ms` < 0 blocks
/// indefinitely; 0 reports an expired deadline at once. Readiness with
/// POLLERR/POLLHUP set is reported as ready — the following read/write
/// surfaces the precise error.
Status PollFd(int fd, short events, int timeout_ms) {
  struct pollfd p;
  p.fd = fd;
  p.events = events;
  p.revents = 0;
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms < 0 ? -1 : timeout_ms);
    if (r > 0) return Status::OK();
    if (r == 0) return Status::Internal("transport: peer deadline expired");
    if (errno != EINTR) {
      return Status::Internal(std::string("transport: poll: ") +
                              std::strerror(errno));
    }
  }
}

/// The deadline is for the WHOLE write: every blocked poll gets only what
/// is left of it, so a peer draining one byte per poll cannot stretch the
/// call past the caller's budget.
Status WriteFull(int fd, const uint8_t* data, size_t size, WireTime deadline) {
  size_t off = 0;
  while (off < size) {
    Status s = PollFd(fd, POLLOUT, RemainingMs(deadline));
    if (!s.ok()) return s;
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Internal(std::string("transport: send: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

/// Same whole-operation deadline discipline as WriteFull (the drip-feed
/// fix: a worker sending one byte per read_timeout_ms used to extend a
/// round indefinitely, because each blocked read got the full budget).
Status ReadFull(int fd, uint8_t* data, size_t size, WireTime deadline) {
  size_t off = 0;
  while (off < size) {
    Status s = PollFd(fd, POLLIN, RemainingMs(deadline));
    if (!s.ok()) return s;
    const ssize_t n = ::recv(fd, data + off, size - off, 0);
    if (n == 0) return Status::Internal("transport: connection closed by peer");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Status::Internal(std::string("transport: recv: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteWireMessage(int fd, const std::vector<uint8_t>& body,
                        int timeout_ms) {
  Encoder framed;
  framed.PutVarint(body.size());
  framed.PutRaw(body);
  framed.PutU32(WireCrc32(body.data(), body.size()));
  return WriteFull(fd, framed.buffer().data(), framed.buffer().size(),
                   WireDeadline(timeout_ms));
}

Status ReadWireMessage(int fd, int timeout_ms, size_t max_frame_bytes,
                       std::vector<uint8_t>* body) {
  // The length varint arrives byte by byte; everything after it is read in
  // one bounded gulp. The declared length is capped BEFORE the payload
  // buffer is sized, so a corrupt or hostile peer cannot drive a huge
  // allocation. One deadline covers the whole message.
  const WireTime deadline = WireDeadline(timeout_ms);
  uint64_t len = 0;
  int shift = 0;
  for (;;) {
    uint8_t byte = 0;
    Status s = ReadFull(fd, &byte, 1, deadline);
    if (!s.ok()) return s;
    len |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64) {
      return Status::Corruption("transport: overlong frame length");
    }
  }
  if (len > max_frame_bytes) {
    return Status::Corruption("transport: frame exceeds max_frame_bytes");
  }
  body->assign(static_cast<size_t>(len), 0);
  if (len > 0) {
    Status s = ReadFull(fd, body->data(), body->size(), deadline);
    if (!s.ok()) return s;
  }
  uint8_t crc_bytes[4];
  Status s = ReadFull(fd, crc_bytes, sizeof(crc_bytes), deadline);
  if (!s.ok()) return s;
  uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<uint32_t>(crc_bytes[i]) << (8 * i);
  if (crc != WireCrc32(body->data(), body->size())) {
    return Status::Corruption("transport: frame checksum mismatch");
  }
  return Status::OK();
}

namespace {

/// Parses a worker reply envelope: u8 ok; ok=1 -> double compute_ms, varint
/// payload length (must equal the remaining bytes), payload; ok=0 -> error
/// string, surfaced as Internal (the worker stayed alive and framed — only
/// this round failed).
Status ParseReply(const std::vector<uint8_t>& body,
                  std::vector<uint8_t>* payload, double* compute_ms) {
  Decoder dec(body, Decoder::OnError::kStatus);
  const uint8_t ok = dec.GetU8();
  if (!dec.ok()) return dec.status();
  if (ok == 0) {
    std::string message = dec.GetString();
    if (!dec.ok()) return dec.status();
    return Status::Internal("transport: worker reported: " + message);
  }
  if (ok != 1) return Status::Corruption("transport: bad reply status byte");
  *compute_ms = dec.GetDouble();
  const uint64_t n = dec.GetVarint();
  if (!dec.ok()) return dec.status();
  if (n != dec.remaining()) {
    return Status::Corruption("transport: reply payload length mismatch");
  }
  payload->assign(body.begin() + static_cast<ptrdiff_t>(dec.position()),
                  body.end());
  return Status::OK();
}

std::vector<uint8_t> SerializeFragment(const Fragment& f) {
  Encoder enc;
  f.Serialize(&enc);
  return enc.TakeBuffer();
}

/// One site's share of a round evaluated in process: the same RunSiteRound
/// a worker runs, over the coordinator's fragment and the calling engine's
/// standing context for that site.
Result<std::vector<uint8_t>> RunLocally(const Fragmentation& fragmentation,
                                        FragmentContextCache* local,
                                        SiteId site, const RoundSpec& spec) {
  return RunSiteRound(fragmentation.fragment(site), &local->Get(site),
                      spec.kind, spec.aux, spec.broadcast);
}

// --- kSim -------------------------------------------------------------------

/// Every listed site runs RunLocally on the pool, with a per-site stopwatch
/// feeding the modeled clock. A spec that does not decode fails the round.
class SimTransport : public Transport {
 public:
  SimTransport(const Fragmentation* fragmentation, ThreadPool* pool)
      : fragmentation_(fragmentation), pool_(pool) {}

  Status Execute(const std::vector<SiteId>& sites, const RoundSpec& spec,
                 FragmentContextCache* local,
                 std::vector<std::vector<uint8_t>>* replies,
                 double* max_compute_ms) override {
    const size_t k = sites.size();
    replies->assign(k, {});
    std::vector<double> compute_ms(k, 0.0);
    std::vector<Status> statuses(k, Status::OK());
    pool_->ParallelFor(k, [&](size_t i) {
      StopWatch watch;
      Result<std::vector<uint8_t>> r =
          RunLocally(*fragmentation_, local, sites[i], spec);
      compute_ms[i] = watch.ElapsedMs();
      if (r.ok()) {
        (*replies)[i] = std::move(r).value();
      } else {
        statuses[i] = r.status();
      }
    });
    *max_compute_ms = 0.0;
    for (double ms : compute_ms) *max_compute_ms = std::max(*max_compute_ms, ms);
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

 private:
  const Fragmentation* fragmentation_;
  ThreadPool* pool_;
};

// --- kSocket ----------------------------------------------------------------

std::string DefaultWorkerBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "pereach_worker";
  buf[n] = '\0';
  const std::string self(buf);
  const size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "pereach_worker";
  return self.substr(0, slash + 1) + "pereach_worker";
}

Status ConnectEndpoint(const std::string& endpoint, int timeout_ms,
                       int* out_fd) {
  int fd = -1;
  union {
    sockaddr sa;
    sockaddr_un un;
    sockaddr_storage storage;
  } addr;
  std::memset(&addr, 0, sizeof(addr));
  socklen_t addr_len = 0;
  if (endpoint.rfind("unix:", 0) == 0) {
    const std::string path = endpoint.substr(5);
    if (path.empty() || path.size() >= sizeof(addr.un.sun_path)) {
      return Status::InvalidArgument("transport: bad unix endpoint: " +
                                     endpoint);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return Status::Internal(std::string("transport: socket: ") +
                              std::strerror(errno));
    }
    addr.un.sun_family = AF_UNIX;
    std::memcpy(addr.un.sun_path, path.c_str(), path.size() + 1);
    addr_len = static_cast<socklen_t>(sizeof(sa_family_t) + path.size() + 1);
  } else {
    const size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon + 1 >= endpoint.size()) {
      return Status::InvalidArgument("transport: bad endpoint: " + endpoint);
    }
    const std::string host = endpoint.substr(0, colon);
    const std::string port = endpoint.substr(colon + 1);
    struct addrinfo hints;
    std::memset(&hints, 0, sizeof(hints));
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
    if (rc != 0 || res == nullptr) {
      return Status::InvalidArgument("transport: cannot resolve " + endpoint +
                                     ": " + gai_strerror(rc));
    }
    fd = ::socket(res->ai_family, res->ai_socktype | SOCK_CLOEXEC,
                  res->ai_protocol);
    if (fd < 0) {
      ::freeaddrinfo(res);
      return Status::Internal(std::string("transport: socket: ") +
                              std::strerror(errno));
    }
    addr_len = static_cast<socklen_t>(res->ai_addrlen);
    std::memcpy(&addr, res->ai_addr, res->ai_addrlen);
    ::freeaddrinfo(res);
  }

  // Non-blocking connect bounded by the establishment deadline, then back to
  // blocking mode (every later read/write polls before it touches the fd).
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  if (::connect(fd, &addr.sa, addr_len) != 0) {
    if (errno != EINPROGRESS) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Internal("transport: connect " + endpoint + ": " + err);
    }
    Status s = PollFd(fd, POLLOUT, timeout_ms);
    if (s.ok()) {
      int so_error = 0;
      socklen_t len = sizeof(so_error);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len);
      if (so_error != 0) {
        s = Status::Internal("transport: connect " + endpoint + ": " +
                             std::strerror(so_error));
      }
    }
    if (!s.ok()) {
      ::close(fd);
      return s;
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  *out_fd = fd;
  return Status::OK();
}

/// xorshift-free stateless mixer: the fault plan and the backoff jitter
/// both need reproducible draws with no global RNG state.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Uniform double in [0, 1) from a mixed 64-bit draw.
double UnitDouble(uint64_t h) {
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

/// What the fault plan injects on one (round, site) attempt.
enum class FaultKind : uint8_t {
  kNone = 0,
  kKill,        // SIGKILL the worker (spawn) / sever the socket (connect)
  kHang,        // worker goes silent: the exchange is abandoned and closed
  kDropFrame,   // request delivered, reply frame lost
  kCorruptCrc,  // request frame shipped with a flipped CRC
  kDelay,       // a few ms of extra latency, then a normal exchange
};

/// One pereach_worker process (or remote endpoint) per fragment; the
/// coordinator scatters a round to the involved sites and gathers their
/// replies, all framing CRC-gated. Failure semantics (DESIGN.md §13):
/// rounds are idempotent given fragment state, so a site whose exchange
/// fails is re-established and its share re-dispatched up to round_retries
/// times, all under one whole-round deadline; when retries exhaust or the
/// site's circuit breaker is open, degrade_local evaluates the RoundSpec in
/// process exactly as kSim does — the batch completes either way. A
/// WorkerSupervisor repairs dead connections in the background so
/// re-establishment (respawn/reconnect + Hello + fragment re-ship) leaves
/// the serving hot path.
class SocketTransport : public Transport {
 public:
  SocketTransport(const TransportOptions& options,
                  const Fragmentation* fragmentation, ThreadPool* pool)
      : options_(options), fragmentation_(fragmentation), pool_(pool) {
    if (options_.worker_binary.empty()) {
      options_.worker_binary = DefaultWorkerBinary();
    }
    const size_t k = fragmentation_->num_fragments();
    fault_killed_ = std::make_unique<std::atomic<bool>[]>(k);
    {
      MutexLock lock(&frag_mu_);
      for (SiteId s = 0; s < k; ++s) {
        conns_.push_back(std::make_unique<Connection>());
        conns_.back()->jitter_state = SplitMix64(1 + s);
        frag_bytes_.push_back(SerializeFragment(fragmentation_->fragment(s)));
        fault_killed_[s].store(false, std::memory_order_relaxed);
      }
    }
    supervisor_ = std::make_unique<WorkerSupervisor>(
        k, options_.breaker_threshold, options_.breaker_open_ms);
    supervisor_->Start([this](SiteId site) { return RepairSite(site); });
  }

  ~SocketTransport() override { Shutdown(); }

  Status Execute(const std::vector<SiteId>& sites, const RoundSpec& spec,
                 FragmentContextCache* local,
                 std::vector<std::vector<uint8_t>>* replies,
                 double* max_compute_ms) override {
    const size_t k = sites.size();
    replies->assign(k, {});
    std::vector<double> compute_ms(k, 0.0);
    std::vector<Status> statuses(k, Status::OK());
    const uint64_t round = round_counter_.fetch_add(1);
    // The whole-round deadline spans every retry, backoff and
    // re-establishment below — a dripping or flapping worker cannot stretch
    // a round (or the Stop() drain behind it) past this.
    const WireTime deadline = WireDeadline(options_.round_deadline_ms);
    pool_->ParallelFor(k, [&](size_t i) {
      statuses[i] = RoundOnSite(sites[i], spec, local, round, deadline,
                                &(*replies)[i], &compute_ms[i]);
    });
    *max_compute_ms = 0.0;
    for (double ms : compute_ms) *max_compute_ms = std::max(*max_compute_ms, ms);
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  Status SyncFragments() override {
    // Refresh the serialized snapshots FIRST. The server calls this under
    // the writer-held epoch gate (no rounds in flight), and every later
    // Hello — including the repair thread's — ships these cached bytes, so
    // nothing off the gate ever serializes a live fragment.
    {
      MutexLock lock(&frag_mu_);
      for (SiteId s = 0; s < conns_.size(); ++s) {
        frag_bytes_[s] = SerializeFragment(fragmentation_->fragment(s));
      }
    }
    // A site that fails to sync is marked dead, which is already safe: its
    // next round re-establishes with a Hello carrying the CURRENT fragment,
    // so a worker can never serve stale state. Sites already dead are
    // skipped for the same reason.
    for (SiteId s = 0; s < conns_.size(); ++s) {
      Connection& c = *conns_[s];
      MutexLock lock(&c.io_mu);
      if (c.dead) continue;
      Encoder body;
      body.PutU8(static_cast<uint8_t>(WireMessage::kSync));
      {
        MutexLock flock(&frag_mu_);
        body.PutRaw(frag_bytes_[s]);
      }
      Status st = ExchangeLocked(&c, body.buffer(), nullptr, nullptr,
                                 WireDeadline(options_.read_timeout_ms));
      if (!st.ok()) CloseLocked(&c);
    }
    return Status::OK();
  }

  void Shutdown() override {
    // Stop the repair thread before touching any connection it might be
    // re-establishing.
    if (supervisor_ != nullptr) supervisor_->Stop();
    std::vector<pid_t> pids;
    for (std::unique_ptr<Connection>& cp : conns_) {
      Connection& c = *cp;
      MutexLock lock(&c.io_mu);
      if (c.fd >= 0) {
        Encoder body;
        body.PutU8(static_cast<uint8_t>(WireMessage::kShutdown));
        (void)WriteWireMessage(c.fd, body.buffer(), /*timeout_ms=*/100);
        ::close(c.fd);
        c.fd = -1;
      }
      c.dead = true;
      if (c.pid > 0) {
        pids.push_back(c.pid);
        c.pid = -1;
      }
    }
    // Give workers ~500ms to exit on their own (they see EOF or the
    // shutdown message), then force the stragglers.
    for (int wait_ms = 0; !pids.empty() && wait_ms < 500; wait_ms += 10) {
      for (size_t i = 0; i < pids.size();) {
        if (::waitpid(pids[i], nullptr, WNOHANG) == pids[i]) {
          pids[i] = pids.back();
          pids.pop_back();
        } else {
          ++i;
        }
      }
      if (!pids.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    for (pid_t pid : pids) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }

  std::vector<int> WorkerPidsForTest() override {
    std::vector<int> pids;
    for (std::unique_ptr<Connection>& cp : conns_) {
      MutexLock lock(&cp->io_mu);
      if (!cp->dead && cp->pid > 0) pids.push_back(cp->pid);
    }
    return pids;
  }

  TransportHealth Health() const override {
    TransportHealth h;
    h.round_retries = retries_.load(std::memory_order_relaxed);
    h.worker_respawns = respawns_.load(std::memory_order_relaxed);
    h.degraded_site_rounds = degraded_.load(std::memory_order_relaxed);
    h.breakers_open = supervisor_->OpenBreakers();
    return h;
  }

 private:
  struct Connection {
    int fd = -1;
    pid_t pid = -1;
    bool dead = true;
    /// True after the first successful Hello: later re-establishments are
    /// respawns for the books.
    bool ever_established = false;
    /// Backoff-jitter state (seeded per site; pure SplitMix64 chain).
    uint64_t jitter_state = 1;
    /// Serializes one round's send+receive exchange on this worker socket
    /// (overlapping per-class dispatcher rounds share the connection).
    Mutex io_mu{LockRank::kTransportConn};
  };

  /// One request/reply exchange on an established connection, the whole
  /// thing bounded by `deadline` (also capped by read_timeout_ms per
  /// message). Any failure — EOF, expired deadline, framing corruption —
  /// is final for this attempt; the caller decides whether the connection
  /// survives (a cleanly framed worker-reported error keeps it, everything
  /// else closes it).
  Status ExchangeLocked(Connection* c, const std::vector<uint8_t>& request,
                        std::vector<uint8_t>* payload, double* compute_ms,
                        WireTime deadline) {
    Status s = WriteWireMessage(c->fd, request,
                                BudgetMs(deadline, options_.read_timeout_ms));
    if (!s.ok()) {
      CloseLocked(c);
      return s;
    }
    std::vector<uint8_t> reply;
    s = ReadWireMessage(c->fd, BudgetMs(deadline, options_.read_timeout_ms),
                        options_.max_frame_bytes, &reply);
    if (!s.ok()) {
      CloseLocked(c);
      return s;
    }
    std::vector<uint8_t> scratch;
    double scratch_ms = 0.0;
    s = ParseReply(reply, payload != nullptr ? payload : &scratch,
                   compute_ms != nullptr ? compute_ms : &scratch_ms);
    if (s.code() == StatusCode::kCorruption) CloseLocked(c);
    return s;
  }

  /// Milliseconds of per-message budget under the round deadline: the
  /// smaller of `base_ms` and what is left of `deadline` (0 once the
  /// deadline passed — polls then expire immediately).
  int BudgetMs(WireTime deadline, int base_ms) const {
    const int remaining = RemainingMs(deadline);
    if (remaining < 0) return base_ms;
    if (base_ms <= 0) return remaining;
    return std::min(base_ms, remaining);
  }

  static bool DeadlineExpired(WireTime deadline) {
    return deadline != WireTime{} && WireClock::now() >= deadline;
  }

  /// One site's share of a round, with in-round failover: rounds are pure
  /// functions of (fragment state, broadcast), and re-establishment ships
  /// the current fragment before anything else, so re-dispatching a failed
  /// share is always sound — the worker either never saw the request or
  /// recomputes the identical reply. Worker-REPORTED errors (a cleanly
  /// framed failure from a live worker) are deterministic and final: no
  /// retry, no degradation.
  Status RoundOnSite(SiteId site, const RoundSpec& spec,
                     FragmentContextCache* local, uint64_t round,
                     WireTime deadline, std::vector<uint8_t>* payload,
                     double* compute_ms) {
    Status last = Status::Internal("transport: round never attempted");
    for (int attempt = 0; attempt <= options_.round_retries; ++attempt) {
      if (DeadlineExpired(deadline)) {
        last = Status::Internal("transport: round deadline expired");
        break;
      }
      if (!supervisor_->AllowRequest(site)) {
        last = Status::Internal("transport: circuit breaker open for site " +
                                std::to_string(site));
        break;
      }
      if (attempt > 0) retries_.fetch_add(1, std::memory_order_relaxed);
      bool worker_alive = false;
      Status s = AttemptRoundOnSite(site, spec, round, attempt, deadline,
                                    payload, compute_ms, &worker_alive);
      if (s.ok()) {
        supervisor_->RecordSuccess(site);
        return s;
      }
      if (worker_alive) {
        // The connection survived and framed an error: the failure is the
        // round's, not the transport's. Retrying would recompute it.
        supervisor_->RecordSuccess(site);
        return s;
      }
      supervisor_->RecordFailure(site);
      last = s;
    }
    if (options_.degrade_local) {
      return DegradeLocal(site, spec, local, payload, compute_ms);
    }
    return last;
  }

  /// One attempt: establish if dead, inject any scheduled fault, exchange.
  /// `*worker_alive` is true only when the exchange failed but the
  /// connection is still good (worker-reported error).
  Status AttemptRoundOnSite(SiteId site, const RoundSpec& spec, uint64_t round,
                            int attempt, WireTime deadline,
                            std::vector<uint8_t>* payload, double* compute_ms,
                            bool* worker_alive) {
    Connection& c = *conns_[site];
    MutexLock lock(&c.io_mu);
    if (c.dead) {
      Status s = EstablishLocked(site, &c, deadline);
      if (!s.ok()) return s;
    }
    const FaultKind fault = DrawFault(site, round, attempt);
    if (fault == FaultKind::kKill) {
      // Kill the real worker (or sever a connected endpoint) and proceed:
      // the exchange below fails exactly the way a production crash does.
      if (c.pid > 0) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
        c.pid = -1;
      } else if (c.fd >= 0) {
        ::shutdown(c.fd, SHUT_RDWR);
      }
    } else if (fault == FaultKind::kHang) {
      // Stand-in for a silent worker: the deadline machinery is exercised
      // separately (SilentWorkerTripsReadDeadline); chaos runs shouldn't
      // spend read_timeout_ms per injection.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      CloseLocked(&c);
      return Status::Internal("transport: fault injection: worker hung");
    } else if (fault == FaultKind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(
          1 + static_cast<int>(SplitMix64(round * 977 + site) % 4)));
    }
    Encoder body;
    body.PutU8(static_cast<uint8_t>(WireMessage::kRound));
    body.PutU8(static_cast<uint8_t>(spec.kind));
    body.PutU8(spec.aux);
    body.PutRaw(spec.broadcast);
    if (fault == FaultKind::kDropFrame) {
      // Deliver the request, lose the reply: the worker computes, we close.
      // Re-dispatch after this is the idempotence argument made flesh.
      (void)WriteWireMessage(c.fd, body.buffer(),
                             BudgetMs(deadline, options_.read_timeout_ms));
      CloseLocked(&c);
      return Status::Internal("transport: fault injection: reply dropped");
    }
    if (fault == FaultKind::kCorruptCrc) {
      // Ship the frame with a flipped CRC: the worker's integrity gate
      // rejects it and exits, and our read sees the close — the end-to-end
      // corruption path, coordinator side.
      Encoder framed;
      framed.PutVarint(body.buffer().size());
      framed.PutRaw(body.buffer());
      framed.PutU32(
          WireCrc32(body.buffer().data(), body.buffer().size()) ^ 0xFFu);
      Status s = WriteFull(c.fd, framed.buffer().data(),
                           framed.buffer().size(),
                           WireDeadline(options_.read_timeout_ms));
      if (s.ok()) {
        std::vector<uint8_t> reply;
        s = ReadWireMessage(c.fd, BudgetMs(deadline, options_.read_timeout_ms),
                            options_.max_frame_bytes, &reply);
      }
      CloseLocked(&c);
      return s.ok() ? Status::Internal("transport: fault injection: corrupt")
                    : s;
    }
    Status s = ExchangeLocked(&c, body.buffer(), payload, compute_ms, deadline);
    if (!s.ok()) *worker_alive = !c.dead;
    return s;
  }

  /// The degradation path: evaluate this site's share of the round in
  /// process, exactly as kSim does. RunSiteRound is the same decoder the
  /// workers run, and serialization round-trips are exact, so the reply
  /// bytes are identical to a healthy worker's — the batch completes,
  /// answers and modeled books unchanged. `local` is the calling engine's
  /// context cache, which the update listener invalidates per touched
  /// fragment; each site of a round runs on one pool thread.
  Status DegradeLocal(SiteId site, const RoundSpec& spec,
                      FragmentContextCache* local,
                      std::vector<uint8_t>* payload, double* compute_ms) {
    StopWatch watch;
    Result<std::vector<uint8_t>> r =
        RunLocally(*fragmentation_, local, site, spec);
    *compute_ms = watch.ElapsedMs();
    if (!r.ok()) return r.status();
    *payload = std::move(r).value();
    degraded_.fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  }

  /// The deterministic fault schedule: pure draws keyed by (seed, round,
  /// site), injected only on a share's FIRST attempt so retries exercise
  /// recovery rather than re-drawing the same doom.
  FaultKind DrawFault(SiteId site, uint64_t round, int attempt) {
    const FaultPlan& fp = options_.fault_plan;
    if (!fp.enabled || attempt != 0 || round < fp.first_round) {
      return FaultKind::kNone;
    }
    if (fp.kill_each_site && round >= fp.first_round + site) {
      bool expected = false;
      if (fault_killed_[site].compare_exchange_strong(expected, true)) {
        return FaultKind::kKill;
      }
    }
    if (fp.rate <= 0.0) return FaultKind::kNone;
    const uint64_t h =
        SplitMix64(fp.seed ^ SplitMix64(round * 0x100000001B3ull + site));
    if (UnitDouble(h) >= fp.rate) return FaultKind::kNone;
    switch (SplitMix64(h) % 5) {
      case 0:
        return FaultKind::kKill;
      case 1:
        return FaultKind::kHang;
      case 2:
        return FaultKind::kDropFrame;
      case 3:
        return FaultKind::kCorruptCrc;
      default:
        return FaultKind::kDelay;
    }
  }

  /// Background repair (WorkerSupervisor thread): re-establish a dead
  /// connection off the serving hot path. Returns false while the site
  /// stays down so the supervisor re-queues it.
  bool RepairSite(SiteId site) {
    Connection& c = *conns_[site];
    MutexLock lock(&c.io_mu);
    if (!c.dead) return true;
    return EstablishLocked(site, &c, WireTime{}).ok();
  }

  /// Establishment with bounded retry + jittered backoff: spawn-or-connect
  /// plus the Hello that ships the site id and the current fragment
  /// snapshot, all bounded by `deadline` when one is set. Attempt i backs
  /// off about i * retry_backoff_ms, scaled by a seeded factor in
  /// [0.5, 1.5) so a multi-worker restart spreads out instead of retrying
  /// in lockstep.
  Status EstablishLocked(SiteId site, Connection* c, WireTime deadline) {
    Status last = Status::Internal("transport: connection never attempted");
    for (int attempt = 0; attempt <= options_.max_retries; ++attempt) {
      if (attempt > 0 && options_.retry_backoff_ms > 0) {
        c->jitter_state = SplitMix64(c->jitter_state);
        const double factor = 0.5 + UnitDouble(c->jitter_state);
        int sleep_ms = static_cast<int>(
            static_cast<double>(attempt * options_.retry_backoff_ms) * factor);
        const int remaining = RemainingMs(deadline);
        if (remaining >= 0) sleep_ms = std::min(sleep_ms, remaining);
        if (sleep_ms > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        }
      }
      if (DeadlineExpired(deadline)) {
        last = Status::Internal("transport: round deadline expired");
        break;
      }
      CloseLocked(c);
      ReapLocked(c);
      Status s =
          options_.connect.empty()
              ? SpawnLocked(c)
              : ConnectEndpoint(options_.connect[site],
                                BudgetMs(deadline, options_.connect_timeout_ms),
                                &c->fd);
      if (s.ok()) s = HelloLocked(site, c, deadline);
      if (s.ok()) {
        c->dead = false;
        if (c->ever_established) {
          respawns_.fetch_add(1, std::memory_order_relaxed);
        }
        c->ever_established = true;
        return s;
      }
      CloseLocked(c);
      last = s;
    }
    ReapLocked(c);
    return last;
  }

  Status SpawnLocked(Connection* c) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      return Status::Internal(std::string("transport: socketpair: ") +
                              std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sv[0]);
      ::close(sv[1]);
      return Status::Internal(std::string("transport: fork: ") +
                              std::strerror(errno));
    }
    if (pid == 0) {
      // Child: only its own end survives the exec (everything else in the
      // parent is CLOEXEC, so sibling workers' sockets don't leak in).
      ::fcntl(sv[1], F_SETFD, 0);
      const std::string fd_arg = "--fd=" + std::to_string(sv[1]);
      ::execl(options_.worker_binary.c_str(), "pereach_worker", fd_arg.c_str(),
              static_cast<char*>(nullptr));
      _exit(127);
    }
    ::close(sv[1]);
    c->fd = sv[0];
    c->pid = pid;
    return Status::OK();
  }

  /// Hello ships the CACHED fragment snapshot, never the live fragment:
  /// the repair thread establishes off the epoch gate, and frag_bytes_ is
  /// only rewritten under the writer-held gate (SyncFragments), so the
  /// bytes a worker boots from are always a committed epoch's.
  Status HelloLocked(SiteId site, Connection* c, WireTime deadline) {
    Encoder body;
    body.PutU8(static_cast<uint8_t>(WireMessage::kHello));
    body.PutU8(kWireVersion);
    body.PutVarint(site);
    {
      MutexLock flock(&frag_mu_);
      body.PutRaw(frag_bytes_[site]);
    }
    Status s = WriteWireMessage(c->fd, body.buffer(),
                                BudgetMs(deadline, options_.connect_timeout_ms));
    if (!s.ok()) return s;
    std::vector<uint8_t> reply;
    s = ReadWireMessage(c->fd, BudgetMs(deadline, options_.read_timeout_ms),
                        options_.max_frame_bytes, &reply);
    if (!s.ok()) return s;
    std::vector<uint8_t> payload;
    double compute_ms = 0.0;
    return ParseReply(reply, &payload, &compute_ms);
  }

  void CloseLocked(Connection* c) {
    if (c->fd >= 0) {
      ::close(c->fd);
      c->fd = -1;
    }
    c->dead = true;
  }

  /// Collects a spawned worker that is gone or being replaced; SIGKILL is
  /// safe here — the connection is already closed, so no round is talking
  /// to it.
  void ReapLocked(Connection* c) {
    if (c->pid > 0) {
      ::kill(c->pid, SIGKILL);
      ::waitpid(c->pid, nullptr, 0);
      c->pid = -1;
    }
  }

  TransportOptions options_;
  const Fragmentation* fragmentation_;
  ThreadPool* pool_;
  std::vector<std::unique_ptr<Connection>> conns_;
  /// Serialized fragment snapshots shipped by Hello and Sync; written only
  /// under the writer-held epoch gate, read during establishment.
  Mutex frag_mu_{LockRank::kTransportFrag};
  std::vector<std::vector<uint8_t>> frag_bytes_ PEREACH_GUARDED_BY(frag_mu_);
  std::unique_ptr<WorkerSupervisor> supervisor_;
  /// kill_each_site bookkeeping: each site is force-killed exactly once.
  std::unique_ptr<std::atomic<bool>[]> fault_killed_;
  std::atomic<uint64_t> round_counter_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> respawns_{0};
  std::atomic<uint64_t> degraded_{0};
};

}  // namespace

std::unique_ptr<Transport> MakeTransport(const TransportOptions& options,
                                         const Fragmentation* fragmentation,
                                         ThreadPool* pool) {
  switch (options.backend) {
    case TransportBackend::kSim:
      return std::make_unique<SimTransport>(fragmentation, pool);
    case TransportBackend::kSocket:
      if (!options.connect.empty()) {
        PEREACH_CHECK_EQ(options.connect.size(),
                         fragmentation->num_fragments());
      }
      return std::make_unique<SocketTransport>(options, fragmentation, pool);
  }
  PEREACH_CHECK(false && "unknown transport backend");
  return nullptr;
}

}  // namespace pereach
