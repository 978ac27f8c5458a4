#ifndef FLEXPATH_EXEC_TOPK_H_
#define FLEXPATH_EXEC_TOPK_H_

#include <map>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/evaluator.h"
#include "exec/selectivity.h"
#include "ir/engine.h"
#include "obs/query_stats.h"
#include "query/tpq.h"
#include "rank/score.h"
#include "relax/penalty.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"

namespace flexpath {

struct SchemeCertificate;  // analysis/score_algebra.h

/// The three top-K evaluation algorithms of Section 5.
enum class Algorithm : uint8_t {
  kDpo,     ///< Dynamic Penalty Order: evaluate, then relax one step at a
            ///  time while fewer than K answers (multiple plan passes).
  kSso,     ///< Static Selectivity Order: pick the relaxations to encode
            ///  up front from selectivity estimates; one plan, flat
            ///  intermediate lists, score sorts for pruning.
  kHybrid,  ///< SSO's plan with bucketized intermediates: score-
            ///  homogeneous buckets, no score sorting (Section 5.2.3).
};

const char* AlgorithmName(Algorithm algo);

struct TopKOptions {
  size_t k = 10;
  /// The ranking scheme. Must be registered in SchemeRegistry (the three
  /// built-ins always are; custom values come from Register, which
  /// refuses uncertifiable algebras) — the run consults the scheme's
  /// SchemeCertificate for every optimization decision (threshold
  /// pruning, DPO stopping rule; DESIGN.md §16), and an unregistered
  /// value is an InvalidArgument error up front.
  RankScheme scheme = RankScheme::kStructureFirst;
  Weights weights;
  /// When true, the run assembles a QueryTrace (returned via
  /// TopKResult::trace): one span per relaxation round / encoded pass,
  /// with plan-build, join-step and sort sub-spans. Off by default — the
  /// disabled path costs one pointer test per would-be span.
  bool collect_trace = false;
  /// Slow-query threshold in milliseconds. When >= 0, a run at least this
  /// slow is logged at WARN and appended (with its trace) to the
  /// processor's QueryStatsStore slow-query log; trace collection is
  /// forced on for such runs so the log can carry the span tree.
  /// Negative (the default) disables the slow-query log.
  double slow_query_ms = -1.0;
  /// When true (the default), each relaxation round is first checked
  /// against the corpus statistics (analysis::ProvablyEmptyReason): a
  /// round whose query provably has no answers — a tag occurring in
  /// zero elements, a contains expression nothing satisfies, or a
  /// pc/ad edge with zero such pairs — is skipped without building or
  /// running its plan. The proof is sound, so answers, penalties and
  /// relaxation metadata are identical with the option on or off; only
  /// the work counters differ. Skips are observable via the
  /// rounds_pruned_static counter, trace span annotations, and the
  /// query.rounds_pruned_static metric.
  bool static_prune = true;
  /// Worker threads for this run. 0 (the default) means hardware
  /// concurrency; 1 runs the fully serial path (no pool is ever
  /// touched). Parallelism never changes results: DPO evaluates
  /// relaxation rounds speculatively in waves and a deterministic merge
  /// replays the serial stopping rules in round order (discarding
  /// speculative rounds past the stopping point, counters included);
  /// within one plan, join steps fan out over tuple chunks whose outputs
  /// and counters merge in chunk order. Answers, penalties, counters and
  /// trace structure are identical at any thread count (DESIGN.md §10).
  size_t num_threads = 0;
  /// Soft per-query CPU budget in thread-CPU milliseconds (coordinator +
  /// pool workers), <= 0 to disable (the default). Checked between DPO
  /// rounds / encoded passes — never inside one — so a run that trips it
  /// stops relaxing and returns what it has, flagged budget_exhausted.
  /// The budget is advisory ("soft"): one round always runs to
  /// completion, so the overshoot is bounded by a single round's cost.
  /// With both budgets disabled the execution path is unchanged —
  /// answers, counters and traces stay byte-identical to a build without
  /// budgets (the differential harness checks this).
  double max_cpu_ms = 0.0;
  /// Soft per-query tuple budget (ExecCounters::tuples_created), 0 to
  /// disable (the default). Same between-rounds semantics as max_cpu_ms.
  uint64_t max_tuples = 0;
};

struct TopKResult {
  std::vector<RankedAnswer> answers;  ///< At most k, best first.
  ExecCounters counters;
  size_t relaxations_used = 0;  ///< Schedule steps evaluated/encoded.
  /// Cumulative structural penalty of the deepest relaxation applied
  /// (DPO: last executed round; SSO/Hybrid: last encoded step).
  double penalty_applied = 0.0;
  /// Predicates relaxed away at that deepest relaxation.
  uint64_t predicates_dropped = 0;
  /// Thread-CPU ms the query burned across the coordinating thread and
  /// every pool worker that served it (speculative DPO rounds included,
  /// merged or discarded). Measured, so it varies run to run; what the
  /// run did is `counters`, which the byte-identity guarantees cover.
  double cpu_ms = 0.0;
  /// True when a soft budget (max_cpu_ms / max_tuples) stopped the run
  /// early; `answers` then holds the partial result accumulated so far.
  bool budget_exhausted = false;
  /// Execution trace; null unless TopKOptions::collect_trace was set.
  std::shared_ptr<const QueryTrace> trace;
};

/// Runs top-K queries against one indexed corpus. The FleXPath
/// architecture of Figure 7: relaxation generation + XPath-engine
/// evaluation + IR-engine contains evaluation + combination.
class TopKProcessor {
 public:
  /// All dependencies must outlive the processor. `ir` may be null when
  /// queries carry no contains predicates; `query_stats` may be null to
  /// skip per-shape statistics collection.
  TopKProcessor(const ElementIndex* index, const DocumentStats* stats,
                IrEngine* ir, QueryStatsStore* query_stats = nullptr)
      : index_(index),
        stats_(stats),
        ir_(ir),
        query_stats_(query_stats),
        evaluator_(index, ir) {}

  /// Evaluates the top-K answers of `q` and all its relaxations
  /// (Definition 4) with the chosen algorithm. All three algorithms
  /// return the same answer set for the same query and K, up to ties;
  /// DPO assigns each relaxation round's answers a uniform structural
  /// score while SSO/Hybrid score per answer (Section 5.2.1).
  Result<TopKResult> Run(const Tpq& q, Algorithm algo,
                         const TopKOptions& opts);

 private:
  // `cert` is the certificate of opts.scheme (validated non-null by
  // Run): the stopping rules below read their licenses from it instead
  // of switching on the scheme by name.
  Result<TopKResult> RunDpo(const Tpq& q, const TopKOptions& opts,
                            const SchemeCertificate& cert,
                            const PenaltyModel& pm, TraceCollector* trace,
                            ThreadPool* pool);
  Result<TopKResult> RunEncoded(const Tpq& q, const TopKOptions& opts,
                                const SchemeCertificate& cert,
                                const PenaltyModel& pm, EvalMode mode,
                                TraceCollector* trace, ThreadPool* pool);

  /// The pool serving `opts.num_threads`, or null for a serial run.
  /// Pools are created on first use and cached per size for the
  /// processor's lifetime, so concurrent Run() calls (even with different
  /// thread counts) share pools safely and never race a pool teardown.
  ThreadPool* PoolFor(const TopKOptions& opts);

  const ElementIndex* index_;
  const DocumentStats* stats_;
  IrEngine* ir_;
  QueryStatsStore* query_stats_;
  PlanEvaluator evaluator_;
  Mutex pools_mu_;
  std::map<size_t, std::unique_ptr<ThreadPool>> pools_ GUARDED_BY(pools_mu_);
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_TOPK_H_
