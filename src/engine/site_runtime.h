#ifndef PEREACH_ENGINE_SITE_RUNTIME_H_
#define PEREACH_ENGINE_SITE_RUNTIME_H_

#include <vector>

#include "src/engine/fragment_context.h"
#include "src/net/transport.h"
#include "src/util/serialization.h"
#include "src/util/status.h"

namespace pereach {

/// The SITE half of every PartialEvalEngine round: the query-dependent
/// sweeps and row re-encodings that run against one fragment plus its
/// FragmentContext — everything a site contributes to a round, with no
/// reference to coordinator state. Every backend reaches them through
/// RunSiteRound, which decodes a site's RoundSpec payload: kSim in process over
/// the coordinator's fragments, kSocket on its workers. One definition on
/// every path is why the backend differential suite (answers, reply bytes
/// and books bit-identical across transports) holds by construction.

// Flag bits of a boundary sweep frame.
inline constexpr uint8_t kFrameHasS = 1;  // s-side entry present
inline constexpr uint8_t kFrameHasT = 2;  // t-side entry present

/// Closure-form reach partial answer straight from the cached rows.
ReachPartialAnswer ReachFromCachedRows(const Fragment& f, FragmentContext* ctx,
                                       NodeId s, NodeId t);

/// The query-dependent halves of one dist query at one fragment: the reach
/// frame over the local graph the dist refresh round shipped, carrying the
/// local id of s and/or of t — at most 11 bytes. The coordinator's glued
/// graph applies the bound, so `ctx` and `bound` are unused.
void EncodeDistSweepFrame(const Fragment& f, FragmentContext* ctx, NodeId s,
                          NodeId t, uint32_t bound, Encoder* body);

/// The query-dependent halves of one reach query at one fragment, encoded
/// for the boundary answer path: a flag byte, then the condensation
/// component of s and/or of t where they are stored here — at most 11
/// bytes, whatever the fragment's boundary.
void EncodeBoundarySweepFrame(const Fragment& f, FragmentContext* ctx,
                              NodeId s, NodeId t, Encoder* body);

/// The query-dependent halves of one regular query at one fragment: the
/// reach frame over `p`'s product condensation, carrying comp(s, u_s)
/// and/or comp(t, u_t) — at most 11 bytes. `p` must be the fragment's
/// product for the query's canonical automaton; `ctx` is unused.
void EncodeRpqSweepFrame(const Fragment& f, FragmentContext* ctx,
                         const FragmentContext::RpqProduct& p, NodeId s,
                         NodeId t, Encoder* body);

/// The one site entry point: decodes this site's round payload (tolerant
/// decoding — a corrupt or truncated payload, or a kind byte no RoundKind
/// names, returns Corruption, never aborts, so one bad frame cannot kill a
/// worker process) and produces this fragment's reply bytes for (kind,
/// aux). `ctx` is the site's standing cache; it must be reset (fresh
/// FragmentContext) whenever the fragment changes. Workers
/// call it over their fragment copies; the kSim backend and the socket
/// transport's degrade-local path (DESIGN.md §13.2) call it over the
/// coordinator's fragments and the engine's context cache, which is why a
/// degraded round's reply bytes are identical to a healthy one's.
Result<std::vector<uint8_t>> RunSiteRound(const Fragment& f,
                                          FragmentContext* ctx, RoundKind kind,
                                          uint8_t aux,
                                          const std::vector<uint8_t>& payload);

}  // namespace pereach

#endif  // PEREACH_ENGINE_SITE_RUNTIME_H_
