#ifndef PEREACH_REGEX_CANONICAL_H_
#define PEREACH_REGEX_CANONICAL_H_

#include <string>
#include <utility>

#include "src/regex/query_automaton.h"

namespace pereach {

/// Canonical signature of a query automaton: the wire bytes of its
/// minimized, canonically renumbered form, plus a 64-bit hash of those
/// bytes for cheap routing. Two queries with equal signatures have
/// LANGUAGE-EQUAL automata (the key bytes fully determine the canonical
/// automaton), so signature-keyed caches — the coordinator's standing
/// glued product graphs, the per-fragment product condensations, the batch
/// broadcast's automaton table — may serve both from one entry without any
/// correctness caveat. The converse is best-effort: equivalent regexes
/// written differently may canonicalize apart, which costs a cache entry,
/// never an answer.
struct AutomatonSignature {
  uint64_t hash = 0;
  std::string key;  // canonical wire bytes (QueryAutomaton::Serialize)

  friend bool operator==(const AutomatonSignature&,
                         const AutomatonSignature&) = default;
};

/// A canonicalized automaton together with its signature. The automaton is
/// the one signature-keyed caches evaluate with, so every consumer of one
/// signature uses bit-identical structure.
struct CanonicalAutomaton {
  QueryAutomaton automaton;
  AutomatonSignature signature;
};

/// Minimized canonical form of `a` ("minimized Glushkov form"):
///  1. prune interior states that are unreachable from u_s or cannot reach
///     u_t — they sit on no accepting run;
///  2. iteratively merge interior states with identical (label, successor
///     mask) — such states have equal right languages, so redirecting
///     every transition onto one representative preserves L(G_q);
///  3. renumber the surviving interior states by (label, original position)
///     so construction-order noise (e.g. `a|a` vs `a`) cancels.
/// u_s and u_t keep indices 0 and 1. The result accepts exactly the same
/// interior label sequences as `a` (fuzzed against AcceptsInterior in
/// tests/query_automaton_test.cc).
CanonicalAutomaton Canonicalize(const QueryAutomaton& a);

/// FNV-1a over a canonical key; exposed for tests and observability.
uint64_t SignatureHash(const std::string& key);

}  // namespace pereach

#endif  // PEREACH_REGEX_CANONICAL_H_
