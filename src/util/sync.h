#ifndef PEREACH_UTIL_SYNC_H_
#define PEREACH_UTIL_SYNC_H_

// The project's ONLY synchronization primitives. Every mutex in the tree is
// a pereach::Mutex or pereach::SharedMutex (scripts/check_static.py rejects
// naked std::mutex / std::lock_guard / std::shared_mutex outside this
// header), which buys two machine-checked properties on every build:
//
//  1. Clang Thread Safety Analysis. The wrappers carry the CAPABILITY /
//     ACQUIRE / RELEASE attributes and protected state is declared with
//     PEREACH_GUARDED_BY / must-hold-lock helpers with PEREACH_REQUIRES, so
//     a clang build with -Wthread-safety -Werror PROVES that no annotated
//     field is touched without its lock — the epoch/locking protocol of
//     DESIGN.md §12 stops being prose. The attributes compile to nothing on
//     gcc (no __attribute__((capability))), so the gcc jobs build the same
//     code unannotated.
//
//  2. Lock-rank deadlock detection. Every mutex is constructed with a
//     LockRank; a thread-local stack of held ranks PEREACH_CHECKs on every
//     acquisition that the new rank is STRICTLY GREATER than every rank
//     already held. Any potential deadlock cycle must contain at least one
//     out-of-order edge, so the first acquisition along such a cycle aborts
//     deterministically — on the FIRST run, with a clean stack trace —
//     instead of needing TSan plus the one bad interleaving. The check is
//     on in all build modes (same philosophy as PEREACH_CHECK: a vector
//     push/compare is free next to the condvar/hash-map work these locks
//     guard); DESIGN.md §12 is the authoritative rank table and
//     scripts/check_static.py fails CI when a rank is missing from it.

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "src/util/common.h"
#include "src/util/logging.h"

// --- Clang Thread Safety Analysis attribute shims ---------------------------
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. Each macro expands
// to the clang attribute when the compiler understands it and to nothing
// otherwise, so gcc builds are unaffected.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PEREACH_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PEREACH_THREAD_ANNOTATION
#define PEREACH_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

#define PEREACH_CAPABILITY(x) PEREACH_THREAD_ANNOTATION(capability(x))
#define PEREACH_SCOPED_CAPABILITY PEREACH_THREAD_ANNOTATION(scoped_lockable)
#define PEREACH_GUARDED_BY(x) PEREACH_THREAD_ANNOTATION(guarded_by(x))
#define PEREACH_PT_GUARDED_BY(x) PEREACH_THREAD_ANNOTATION(pt_guarded_by(x))
#define PEREACH_REQUIRES(...) \
  PEREACH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PEREACH_REQUIRES_SHARED(...) \
  PEREACH_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PEREACH_ACQUIRE(...) \
  PEREACH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PEREACH_ACQUIRE_SHARED(...) \
  PEREACH_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PEREACH_RELEASE(...) \
  PEREACH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PEREACH_RELEASE_SHARED(...) \
  PEREACH_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PEREACH_RELEASE_GENERIC(...) \
  PEREACH_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define PEREACH_EXCLUDES(...) \
  PEREACH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define PEREACH_ASSERT_CAPABILITY(x) \
  PEREACH_THREAD_ANNOTATION(assert_capability(x))
#define PEREACH_RETURN_CAPABILITY(x) PEREACH_THREAD_ANNOTATION(lock_returned(x))
#define PEREACH_NO_THREAD_SAFETY_ANALYSIS \
  PEREACH_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace pereach {

/// Acquisition order of every mutex in the tree, low acquired first: a
/// thread may only acquire a mutex whose rank is STRICTLY GREATER than
/// every rank it already holds. The enumerators are the machine half of the
/// DESIGN.md §12 table (one row per rank, same names); scripts/
/// check_static.py cross-checks that every enumerator and every Mutex
/// declaration appears there. Gaps between values are deliberate — new
/// locks slot in without renumbering the table.
enum class LockRank : int {
  /// QueryServer::stop_mu_ — serializes Stop(); held across dispatcher
  /// joins and the final writer-held listener detach.
  kServerStop = 10,
  /// EpochGate's SharedMutex — readers hold it across a whole batch
  /// evaluation, the writer across an index update, so every lock the
  /// evaluation or commit path touches ranks above it.
  kEpochGate = 20,
  /// BatchQueue::mu_ — one per class queue; admission verdicts, arrival
  /// stamps and the window estimator are decided under it.
  kBatchQueue = 30,
  /// Cluster::mu_ — the per-thread metrics-window map; taken and released
  /// round by round inside gate-reader-held evaluations.
  kClusterMetrics = 40,
  /// SocketTransport's per-connection io_mu — serializes one round's
  /// send+receive exchange on a worker socket; taken inside gate-reader-held
  /// rounds, never with any higher rank held. Also the per-site eval_mu
  /// guarding degrade-local FragmentContexts (never nested with io_mu:
  /// degradation runs only after the exchange released it).
  kTransportConn = 45,
  /// SocketTransport::frag_mu_ — the serialized fragment snapshots Hello
  /// and Sync ship; read under io_mu during establishment, written by
  /// SyncFragments under the writer-held epoch gate.
  kTransportFrag = 46,
  /// WorkerSupervisor::mu_ — per-connection breaker state and the repair
  /// worklist. Ranked above io_mu so the repair thread can never hold it
  /// while re-establishing a connection (it copies the worklist and
  /// releases first); breaker bookkeeping nests inside io_mu-free code or
  /// after io_mu on the round path.
  kTransportHealth = 48,
  /// ThreadPool::mu_ — task queue and in-flight count of the site pool.
  kThreadPool = 50,
  /// ThreadPool::ParallelFor's per-call completion latch; workers take it
  /// after finishing their slice (never under ThreadPool::mu_, but ranked
  /// above it so a future nesting fails loudly rather than deadlocking).
  kPoolLatch = 55,
  /// AnswerCache::mu_ — looked up lock-free of everything else in Submit,
  /// and taken under the writer-held EpochGate in OnEpochAdvance.
  kAnswerCache = 60,
  /// QueryServer::drain_mu_ — in-flight and per-tenant quota books.
  kServerDrain = 70,
  /// QueryServer::stats_mu_ — aggregate ServerStats; taken under the
  /// writer-held gate on the update path.
  kServerStats = 75,
  /// ServerMetrics::mu_ — gauges and histograms; leaf rank, taken under
  /// drain_mu_ when Metrics() samples the tenant gauge.
  kServerMetrics = 80,
  /// Leaf rank for tests and scratch structures that never nest.
  kLeaf = 1000,
};

namespace internal_sync {

/// One held lock: the rank plus the owning object (so the LIFO-release
/// check and the abort diagnostic can name the exact mutex pair).
struct HeldLock {
  int rank;
  const void* mutex;
};

/// The calling thread's stack of held ranks. Function-local static avoids
/// the init-order hazards of a namespace-scope thread_local.
inline std::vector<HeldLock>& HeldStack() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

/// The deadlock detector: aborts unless `rank` is strictly greater than
/// every rank this thread already holds. Strictness also rejects two
/// same-rank mutexes nested (two BatchQueues, say) — an order the DESIGN
/// table does not declare, hence a potential cycle against a thread nesting
/// them the other way.
inline void PushRank(int rank, const void* mutex) {
  std::vector<HeldLock>& stack = HeldStack();
  if (!stack.empty()) {
    PEREACH_CHECK(rank > stack.back().rank &&
                  "lock-rank inversion: acquiring a mutex whose rank is not "
                  "above every held rank (DESIGN.md §12 order violated)");
  }
  stack.push_back(HeldLock{rank, mutex});
}

/// Releases must be LIFO (all acquisition in this codebase is scoped); a
/// mismatch means a lock escaped its scope, which the detector treats as
/// corruption rather than guessing.
inline void PopRank(const void* mutex) {
  std::vector<HeldLock>& stack = HeldStack();
  PEREACH_CHECK(!stack.empty() && stack.back().mutex == mutex &&
                "lock released out of LIFO order");
  stack.pop_back();
}

}  // namespace internal_sync

class CondVar;

/// Annotated, ranked exclusive mutex. Prefer the scoped MutexLock; call
/// Lock/Unlock directly only from RAII types (EpochGate's guards).
class PEREACH_CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank) : rank_(static_cast<int>(rank)) {}

  void Lock() PEREACH_ACQUIRE() {
    // Check BEFORE blocking: an inverted order aborts even when the other
    // thread of the would-be cycle never shows up.
    internal_sync::PushRank(rank_, this);
    native_.lock();
  }

  void Unlock() PEREACH_RELEASE() {
    native_.unlock();
    internal_sync::PopRank(this);
  }

  LockRank rank() const { return static_cast<LockRank>(rank_); }

 private:
  friend class CondVar;
  PEREACH_DISALLOW_COPY_AND_ASSIGN(Mutex);

  std::mutex native_;
  const int rank_;
};

/// Annotated, ranked shared (reader/writer) mutex. Shared acquisitions feed
/// the same rank stack as exclusive ones: readers constrain ordering too
/// (a reader blocking on a writer is half of a deadlock cycle).
class PEREACH_CAPABILITY("shared_mutex") SharedMutex {
 public:
  explicit SharedMutex(LockRank rank) : rank_(static_cast<int>(rank)) {}

  void Lock() PEREACH_ACQUIRE() {
    internal_sync::PushRank(rank_, this);
    native_.lock();
  }

  void Unlock() PEREACH_RELEASE() {
    native_.unlock();
    internal_sync::PopRank(this);
  }

  void LockShared() PEREACH_ACQUIRE_SHARED() {
    internal_sync::PushRank(rank_, this);
    native_.lock_shared();
  }

  void UnlockShared() PEREACH_RELEASE_SHARED() {
    native_.unlock_shared();
    internal_sync::PopRank(this);
  }

  LockRank rank() const { return static_cast<LockRank>(rank_); }

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(SharedMutex);

  std::shared_mutex native_;
  const int rank_;
};

/// Scoped exclusive lock — the std::lock_guard of this codebase.
class PEREACH_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PEREACH_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PEREACH_RELEASE() { mu_->Unlock(); }

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(MutexLock);

  Mutex* const mu_;
};

/// Scoped shared lock on a SharedMutex.
class PEREACH_SCOPED_CAPABILITY ReaderLock {
 public:
  explicit ReaderLock(SharedMutex* mu) PEREACH_ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderLock() PEREACH_RELEASE_GENERIC() { mu_->UnlockShared(); }

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(ReaderLock);

  SharedMutex* const mu_;
};

/// Scoped exclusive lock on a SharedMutex.
class PEREACH_SCOPED_CAPABILITY WriterLock {
 public:
  explicit WriterLock(SharedMutex* mu) PEREACH_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterLock() PEREACH_RELEASE() { mu_->Unlock(); }

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(WriterLock);

  SharedMutex* const mu_;
};

/// Condition variable over a Mutex. Wait takes the mutex the caller already
/// holds (REQUIRES — thread-safety analysis rejects a call without it) and
/// re-holds it on return. There is deliberately NO predicate overload:
/// clang cannot see through a predicate lambda to check its guarded-field
/// accesses, so callers write the standard `while (!pred) cv.Wait(&mu);`
/// loop inline, where the analysis covers the predicate too.
class CondVar {
 public:
  CondVar() = default;

  /// Atomically releases `mu`, blocks until notified (or spuriously woken),
  /// reacquires `mu`. The rank-stack entry stays in place across the wait —
  /// the thread is blocked, and it re-holds the same mutex on return, so
  /// the stack is accurate whenever this thread can run checks.
  void Wait(Mutex* mu) PEREACH_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->native_, std::adopt_lock);
    cv_.wait(native);
    native.release();  // ownership stays with the caller's scoped lock
  }

  /// Wait with a deadline; returns std::cv_status::timeout when the
  /// deadline passed before a notification.
  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex* mu, const std::chrono::time_point<Clock, Duration>& deadline)
      PEREACH_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu->native_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(native, deadline);
    native.release();
    return status;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(CondVar);

  std::condition_variable cv_;
};

/// Debug-build assertion that a structure with EXTERNAL synchronization
/// (the single-dispatcher discipline of the boundary indexes, DESIGN.md
/// §10.4) really is entered by one thread at a time: each public entry
/// point holds a ScopedExclusiveUse for its duration, and overlapping
/// holders abort deterministically instead of corrupting scratch. Reentrant
/// holds from the SAME holder scope are not supported — take it once at
/// the outermost entry point. Compiles to nothing under NDEBUG.
class ExclusiveUseToken {
 public:
  ExclusiveUseToken() = default;

 private:
  friend class ScopedExclusiveUse;
  PEREACH_DISALLOW_COPY_AND_ASSIGN(ExclusiveUseToken);

#ifndef NDEBUG
  std::atomic<bool> in_use_{false};
#endif
};

class ScopedExclusiveUse {
 public:
#ifndef NDEBUG
  explicit ScopedExclusiveUse(ExclusiveUseToken* token) : token_(token) {
    PEREACH_CHECK(!token_->in_use_.exchange(true, std::memory_order_acquire) &&
                  "externally-synchronized structure entered concurrently");
  }
  ~ScopedExclusiveUse() {
    token_->in_use_.store(false, std::memory_order_release);
  }
#else
  explicit ScopedExclusiveUse(ExclusiveUseToken* /*token*/) {}
#endif

 private:
  PEREACH_DISALLOW_COPY_AND_ASSIGN(ScopedExclusiveUse);

#ifndef NDEBUG
  ExclusiveUseToken* const token_;
#endif
};

namespace internal_sync {

/// Test hook: ranks currently held by the calling thread, innermost last.
inline std::vector<int> HeldRanksForTest() {
  std::vector<int> ranks;
  for (const HeldLock& held : HeldStack()) ranks.push_back(held.rank);
  return ranks;
}

}  // namespace internal_sync

}  // namespace pereach

#endif  // PEREACH_UTIL_SYNC_H_
