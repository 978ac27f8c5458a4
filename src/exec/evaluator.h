#ifndef FLEXPATH_EXEC_EVALUATOR_H_
#define FLEXPATH_EXEC_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/exec_counters.h"
#include "exec/plan.h"
#include "ir/engine.h"
#include "rank/score.h"
#include "stats/element_index.h"

namespace flexpath {

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
  /// `worker_cpu_ms`, when non-null, accumulates the thread-CPU time this
  /// pass's pool fan-outs burned on *worker* threads. The calling thread's
  /// own CPU is deliberately excluded — the caller times itself, so the
  /// two add without double counting.
  std::vector<RankedAnswer> Evaluate(const JoinPlan& plan, EvalMode mode,
                                     size_t k, RankScheme scheme,
                                     double exact_penalty,
                                     ExecCounters* counters,
                                     TraceCollector* trace = nullptr,
                                     ThreadPool* pool = nullptr,
                                     double* worker_cpu_ms = nullptr);

 private:
  const ElementIndex* index_;
  IrEngine* ir_;
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_EVALUATOR_H_
