#ifndef FLEXPATH_EXEC_EVALUATOR_H_
#define FLEXPATH_EXEC_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "common/resource_usage.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/plan.h"
#include "ir/engine.h"
#include "rank/score.h"
#include "stats/element_index.h"

namespace flexpath {

/// Work counters exposed by the evaluator so benchmarks can report what
/// each algorithm actually did (passes over data, probes, sorting — the
/// quantities Section 6 attributes the DPO/SSO/Hybrid differences to).
struct ExecCounters {
  uint64_t plan_passes = 0;        ///< Full plan evaluations.
  uint64_t candidates_probed = 0;  ///< Scan-list entries examined.
  uint64_t tuples_created = 0;     ///< Intermediate tuples materialized.
  uint64_t tuples_pruned = 0;      ///< Tuples discarded by the threshold.
  uint64_t score_sorts = 0;        ///< Score-order sorts (SSO's weakness).
  uint64_t score_sorted_items = 0; ///< Total items passed through them.
  uint64_t buckets_peak = 0;       ///< Max live buckets (Hybrid).
  uint64_t rounds_pruned_static = 0;  ///< Rounds skipped by static analysis.

  /// How a field folds when counters from parallel chunks or rounds are
  /// combined: totals sum, high-water marks max.
  enum class Agg : uint8_t { kSum, kMax };

  /// Must equal the number of fields above; the static_assert below
  /// pins sizeof to it, so adding a field without updating this (and
  /// VisitFields) fails the build instead of drifting silently.
  static constexpr size_t kFieldCount = 8;

  /// Reflection visitor: calls fn(name, field, agg) for every counter
  /// field of `self`, in declaration order — the single source of truth
  /// for the field list. Add(), ForEach() export (trace annotations,
  /// bench JSON lines, metrics) and the accounting-lint test all iterate
  /// through it, so a field listed here aggregates and exports
  /// automatically, everywhere.
  template <typename Self, typename Fn>
  static void VisitFields(Self& self, Fn&& fn) {
    fn("plan_passes", self.plan_passes, Agg::kSum);
    fn("candidates_probed", self.candidates_probed, Agg::kSum);
    fn("tuples_created", self.tuples_created, Agg::kSum);
    fn("tuples_pruned", self.tuples_pruned, Agg::kSum);
    fn("score_sorts", self.score_sorts, Agg::kSum);
    fn("score_sorted_items", self.score_sorted_items, Agg::kSum);
    fn("buckets_peak", self.buckets_peak, Agg::kMax);
    fn("rounds_pruned_static", self.rounds_pruned_static, Agg::kSum);
  }

  /// Accumulates `other` into this through VisitFields: sums every
  /// kSum field, maxes every kMax field (buckets_peak). Every combine
  /// path — parallel chunk merge, round totals — goes through here, so
  /// a field cannot be aggregated in one path and dropped in another.
  void Add(const ExecCounters& other);

  /// Calls fn(name, value) for every field, in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    VisitFields(*this, [&fn](const char* name, const uint64_t& value,
                             Agg /*agg*/) { fn(name, value); });
  }
};

// The accounting lint (see VisitFields): a new uint64_t field changes
// sizeof, failing this until kFieldCount — and, per the runtime check in
// Add(), the visitor — covers it.
static_assert(sizeof(ExecCounters) ==
                  ExecCounters::kFieldCount * sizeof(uint64_t),
              "ExecCounters field added/removed: update kFieldCount and "
              "VisitFields so aggregation and export stay complete");

/// Projects work counters into the ResourceUsage vocabulary (tuples
/// scanned/produced, rounds, and a byte estimate:
/// sizeof(NodeSpan) per scan probe plus a nominal tuple footprint per
/// materialization). cpu_ms is left at zero — counters carry no time;
/// callers add the CPU they measured. Deterministic: equal counters give
/// equal usage, so the differential byte-identity guarantees extend to
/// every usage field except cpu_ms.
ResourceUsage UsageFromCounters(const ExecCounters& c);

/// How the evaluator manages intermediate results (Section 5.2):
///  - kExact: evaluate the plan's required predicates only; no optional
///    predicates, no pruning. One DPO round.
///  - kSsoFlat: optional predicates encoded; intermediate tuples kept in
///    one list that is sorted by score to find the pruning threshold
///    after every join step: SSO, with the score/id sort tension.
///  - kHybridBuckets: tuples grouped into buckets by violation mask; each
///    bucket is score-homogeneous and stays in document order, so no
///    score sorting ever happens: Hybrid (Section 5.2.3).
enum class EvalMode : uint8_t {
  kExact,
  kSsoFlat,
  kHybridBuckets,
};

/// Evaluates join plans over the tag index + IR engine.
class PlanEvaluator {
 public:
  /// `index` must outlive the evaluator; `ir` may be null when no query
  /// it sees has contains predicates.
  PlanEvaluator(const ElementIndex* index, IrEngine* ir)
      : index_(index), ir_(ir) {}

  /// Runs `plan`, returning answers deduplicated by distinguished node
  /// (best score kept), sorted best-first under `scheme`.
  ///   `k`             — pruning target; 0 disables threshold pruning.
  ///   `exact_penalty` — kExact only: the uniform structural penalty of
  ///                     this relaxation round (DPO scores all of a
  ///                     round's answers identically, Section 5.2.1).
  /// `counters` may be null. `trace`, when non-null, receives one span
  /// per pipeline stage (contains resolution, each join step, sorts,
  /// finalize) annotated with that stage's work.
  ///
  /// `pool`, when non-null, data-parallelizes the scan and every join
  /// step: sibling pattern branches make per-tuple probe work mutually
  /// independent, so the tuple stream splits into contiguous chunks,
  /// each worker extends its chunk against the shared immutable indexes
  /// with chunk-local counters, and outputs/counters merge in chunk
  /// order. The pruning bound is fixed per step before the fan-out, so
  /// answers, scores, and every counter are byte-identical to the serial
  /// run at any thread count (DESIGN.md §10).
  ///
  /// `usage`, when non-null, receives this pass's resource accounting:
  /// UsageFromCounters of the pass's counters, plus the thread-CPU time
  /// its pool fan-outs burned on *worker* threads. The calling thread's
  /// own CPU is deliberately excluded — the caller times itself, so the
  /// two add without double counting.
  std::vector<RankedAnswer> Evaluate(const JoinPlan& plan, EvalMode mode,
                                     size_t k, RankScheme scheme,
                                     double exact_penalty,
                                     ExecCounters* counters,
                                     TraceCollector* trace = nullptr,
                                     ThreadPool* pool = nullptr,
                                     ResourceUsage* usage = nullptr);

 private:
  const ElementIndex* index_;
  IrEngine* ir_;
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_EVALUATOR_H_
