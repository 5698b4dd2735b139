#ifndef PEREACH_ENGINE_PARTIAL_EVAL_ENGINE_H_
#define PEREACH_ENGINE_PARTIAL_EVAL_ENGINE_H_

#include <memory>

#include "src/core/local_eval.h"
#include "src/engine/fragment_context.h"
#include "src/engine/query_engine.h"
#include "src/index/boundary_dist_index.h"
#include "src/index/boundary_index.h"
#include "src/index/boundary_rpq_index.h"
#include "src/regex/canonical.h"

namespace pereach {

/// How the coordinator resolves reachability queries.
///
/// kBes is the paper's assembling phase: every site ships its boundary
/// equations per query and the coordinator solves a fresh Boolean equation
/// system (evalDG).
///
/// kBoundaryIndex short-circuits the solve with a standing coordinator-side
/// label over the fragments' glued condensations (BoundaryReachIndex): a
/// reach query visits only the two endpoint fragments, each of which looks
/// up its endpoint's condensation component, and the coordinator answers
/// with one label lookup — no per-query equation shipping, deserialization,
/// or BES construction. Falls back to nothing: the label path is exact.
enum class ReachAnswerPath : uint8_t { kBes = 0, kBoundaryIndex = 1 };

/// How the coordinator resolves distance (bounded-reach) queries.
///
/// kBes is the paper's assembling phase: every site ships its min-plus
/// boundary equations per query and the coordinator solves a fresh
/// DistanceEquationSystem with Dijkstra (evalDGd).
///
/// kBoundaryIndex short-circuits the assembling with a standing
/// coordinator-side WEIGHTED boundary graph (BoundaryDistIndex): a dist
/// query visits only the two endpoint fragments for the query-dependent
/// sweeps (s-side exit distances, t-side entry distances, local
/// short-circuit) and the coordinator answers with a bidirectional Dijkstra
/// over the standing graph, filtering edges by the query bound so answers
/// stay bit-identical to the BES path. Falls back to nothing: the indexed
/// path is exact.
enum class DistAnswerPath : uint8_t { kBes = 0, kBoundaryIndex = 1 };

/// How the coordinator resolves regular reachability queries.
///
/// kBes is the paper's assembling phase (§5): every site builds the
/// label-compatible product of its fragment with the query automaton, ships
/// its boundary equations, and the coordinator solves a fresh Boolean
/// equation system per query (evalDGr).
///
/// kBoundaryIndex short-circuits the solve with a standing coordinator-side
/// glued graph of the fragments' PRODUCT condensations per distinct
/// automaton (BoundaryRpqIndex, keyed by canonical signature behind an LRU
/// cache): an rpq query visits only its two endpoint fragments, which look
/// up the product components of (s, u_s) and (t, u_t), and the coordinator
/// answers with label lookups over the standing graph — no per-query
/// product construction at non-endpoint sites, no equation shipping, no
/// BES. Falls back to nothing: the indexed path is exact for every
/// automaton.
enum class RpqAnswerPath : uint8_t { kBes = 0, kBoundaryIndex = 1 };

struct PartialEvalOptions {
  /// Equation encoding used by localEval (see EquationForm).
  EquationForm form = EquationForm::kAuto;
  /// Coordinator strategy for reach queries (see ReachAnswerPath).
  ReachAnswerPath reach_path = ReachAnswerPath::kBes;
  /// Coordinator strategy for dist queries (see DistAnswerPath).
  DistAnswerPath dist_path = DistAnswerPath::kBes;
  /// Coordinator strategy for regular queries (see RpqAnswerPath).
  RpqAnswerPath rpq_path = RpqAnswerPath::kBes;
  /// LRU entry cap for the signature-keyed rpq caches — the coordinator's
  /// standing glued product graphs AND each fragment's product
  /// condensations.
  size_t rpq_cache_entries = 8;
};

/// The broadcast of a batch round (kBatchEval) and of an indexed sweep round
/// (kIndexSweep), and the automaton table it carries (DESIGN.md §2.1).
struct BatchBroadcast {
  /// varint n · { Query::SerializeHeader · [varint automaton ref] }ⁿ
  ///          · [varint m · { QueryAutomaton::Serialize }ᵐ]
  /// The table is written only when a query is regular, so a reach or dist
  /// batch is `varint n · { Query::Serialize }ⁿ`.
  std::vector<uint8_t> bytes;
  /// The batch's distinct canonical automata, in table order: regular
  /// queries with language-equal automata share one entry.
  std::vector<CanonicalAutomaton> automata;
  /// Per query of the batch, its automaton's table index (0 unless rpq).
  std::vector<uint32_t> automaton_ref;
};

/// Encodes the queries `wire` (indices into `queries`) as one batch
/// broadcast. Sites decode it with one decoder (site_runtime.cc).
BatchBroadcast EncodeBatchBroadcast(std::span<const Query> queries,
                                    const std::vector<size_t>& wire);

/// The paper's disReach / disDist / disRPQ unified behind the QueryEngine
/// interface, with two amortization levers on top of the per-query
/// guarantees of Theorems 1-3:
///
///  1. Batched rounds. EvaluateBatch ships all k queries in ONE broadcast;
///     every site runs localEval for all of them in a single visit and
///     multiplexes the partial answers into one reply payload (one
///     length-prefixed frame per query, with the query-independent oset
///     table shared across the batch's reachability frames). A batch
///     therefore costs one communication round — 2 latencies + one transfer
///     — instead of k, and strictly less traffic than k single runs.
///
///  2. Per-fragment precompute (FragmentContext). The SCC condensation,
///     boundary tables, closure rows, and label index of each fragment are
///     query-independent; they are built on first use and reused by every
///     subsequent query of every class until InvalidateFragment is called
///     (wire it to IncrementalReachIndex::SetUpdateListener for edge
///     updates).
///
/// Single-query Evaluate is a batch of one; the DisReach / DisDist / DisRpq
/// free functions are thin wrappers over a transient engine.
class PartialEvalEngine : public QueryEngine {
 public:
  explicit PartialEvalEngine(Cluster* cluster, PartialEvalOptions options = {});

  std::string_view name() const override { return "partial-eval"; }

  /// Drops the cached context of one fragment (after an edge update touched
  /// it) or of all fragments (after repartitioning). Both boundary indexes
  /// ride the same invalidation path: the touched fragment's rows are
  /// marked dirty and re-fetched lazily by the next indexed batch.
  void InvalidateFragment(SiteId site) {
    contexts_.Invalidate(site);
    if (boundary_) boundary_->InvalidateFragment(site);
    if (boundary_dist_) boundary_dist_->InvalidateFragment(site);
    if (boundary_rpq_) boundary_rpq_->InvalidateFragment(site);
  }
  void InvalidateAllFragments() {
    contexts_.InvalidateAll();
    if (boundary_) boundary_->InvalidateAll();
    if (boundary_dist_) boundary_dist_->InvalidateAll();
    if (boundary_rpq_) boundary_rpq_->InvalidateAll();
  }

  const FragmentContextCache& context_cache() const { return contexts_; }

  /// The standing boundary index, or nullptr before the first reach batch
  /// ran with reach_path == kBoundaryIndex (observability for tests/benches).
  const BoundaryReachIndex* boundary_index() const { return boundary_.get(); }

  /// Mutable access for benches that drive the index's scalar vs batched
  /// lookup paths directly (micro-comparisons outside a query batch).
  BoundaryReachIndex* mutable_boundary_index() { return boundary_.get(); }

  /// The standing weighted boundary index, or nullptr before the first dist
  /// batch ran with dist_path == kBoundaryIndex.
  const BoundaryDistIndex* boundary_dist_index() const {
    return boundary_dist_.get();
  }

  /// The signature-keyed index of glued product graphs, or nullptr before
  /// the first rpq batch ran with rpq_path == kBoundaryIndex.
  const BoundaryRpqIndex* boundary_rpq_index() const {
    return boundary_rpq_.get();
  }

 protected:
  Status RunBatch(std::span<const Query> queries,
                  std::vector<QueryAnswer>* answers) override;

 private:
  /// Answers the queries `wire` (indices into `queries`) whose class runs
  /// under a boundary index — reach, dist and rpq alike — in at most two
  /// rounds: one refresh round over every dirty (index, fragment) pair of
  /// the batch, if any, then one sweep round over the endpoint fragments.
  /// Reach and rpq assemble with label lookups over their glued graphs,
  /// dist with one bidirectional Dijkstra per query over the weighted
  /// graph. Like RunBatch, a non-OK return is a serving-transport failure.
  Status RunIndexed(std::span<const Query> queries,
                    const std::vector<size_t>& wire,
                    std::vector<QueryAnswer>* answers);

  PartialEvalOptions options_;
  FragmentContextCache contexts_;
  std::unique_ptr<BoundaryReachIndex> boundary_;
  std::unique_ptr<BoundaryDistIndex> boundary_dist_;
  std::unique_ptr<BoundaryRpqIndex> boundary_rpq_;
};

}  // namespace pereach

#endif  // PEREACH_ENGINE_PARTIAL_EVAL_ENGINE_H_
