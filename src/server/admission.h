#ifndef PEREACH_SERVER_ADMISSION_H_
#define PEREACH_SERVER_ADMISSION_H_

#include <cstddef>
#include <cstdint>

namespace pereach {

/// Client identity for fair-share quotas. Tenancy is cooperative (the id is
/// whatever the caller passes to Submit); the default tenant 0 is what
/// single-tenant callers get without thinking about it.
using TenantId = uint64_t;

/// Why a submission resolved as rejected. Every non-kNone reason pairs with
/// ServedAnswer::rejected == true; accepted-and-answered queries carry
/// kNone. Mapped one-to-one onto the server_rejected_*_total counters
/// (docs/OPERATIONS.md has the full table).
enum class RejectReason : uint8_t {
  kNone = 0,
  /// The server is stopping (or stopped); the query was never evaluated.
  kStopping,
  /// The query cannot be evaluated (an rpq whose regex exceeded the
  /// automaton state cap carries no automaton, or an endpoint names a node
  /// the graph does not have).
  kMalformed,
  /// The query's class queue is at its entry budget (admission.max_queue).
  kQueueFull,
  /// The query's class queue is stalled: the oldest pending query has
  /// waited longer than admission.max_queue_age_us, so admitting more work
  /// would only grow an already-unserviced backlog.
  kQueueStale,
  /// The submitting tenant is at its in-flight quota
  /// (admission.tenant_quota).
  kTenantQuota,
  /// The serving transport failed the round carrying this query's batch (a
  /// worker died, a deadline expired, or a frame arrived corrupt). The
  /// query was admitted and dispatched but could not be evaluated; the
  /// server keeps serving and the client may retry.
  kTransportError,
};

/// Printable name of a reason ("none", "stopping", ...), for logs and the
/// metrics snapshot.
const char* RejectReasonName(RejectReason reason);

/// Backpressure budgets. Defaults are all 0 = disabled, which reproduces
/// the pre-hardening behavior (unbounded queues, no quotas); production
/// deployments should set every budget (tuning guidance in
/// docs/OPERATIONS.md).
struct AdmissionOptions {
  /// Per-class pending-entry budget: Submit rejects (kQueueFull) while the
  /// class queue holds this many queries. 0 = unbounded.
  size_t max_queue = 0;
  /// Per-class age budget in microseconds: Submit rejects (kQueueStale)
  /// while the OLDEST pending query of the class has waited longer than
  /// this — the dispatcher is not keeping up, so queueing more work only
  /// grows latency without bound. 0 = disabled.
  uint32_t max_queue_age_us = 0;
  /// Per-tenant in-flight quota, counted ACROSS all three class queues:
  /// Submit rejects (kTenantQuota) while the submitting tenant has this
  /// many admitted-but-unanswered queries. Bounds how much of the shared
  /// queue budget any one tenant can hold — the fair-share mechanism under
  /// skewed load. 0 = unlimited.
  size_t tenant_quota = 0;
};

}  // namespace pereach

#endif  // PEREACH_SERVER_ADMISSION_H_
