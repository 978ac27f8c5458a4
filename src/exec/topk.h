#ifndef FLEXPATH_EXEC_TOPK_H_
#define FLEXPATH_EXEC_TOPK_H_

#include <map>
#include <memory>
#include <vector>

#include "analysis/analyzer.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "exec/evaluator.h"
#include "exec/selectivity.h"
#include "ir/engine.h"
#include "query/tpq.h"
#include "rank/score.h"
#include "relax/penalty.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"

namespace flexpath {

struct SchemeCertificate;  // rank/scheme_registry.h

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

/// The largest explicit TopKOptions::num_threads Run() accepts.
inline constexpr size_t kMaxThreads = 256;

struct TopKOptions {
  size_t k = 10;
  /// The ranking scheme. Its row of kSchemeTable (rank/scheme_registry.h)
  /// decides threshold pruning and the DPO stopping rule; a value outside
  /// RankScheme is an InvalidArgument error up front.
  RankScheme scheme = RankScheme::kStructureFirst;
  Weights weights;
  /// When true, the run assembles a QueryTrace (returned via
  /// TopKResult::trace): one span per relaxation round / encoded pass,
  /// with plan-build, join-step and sort sub-spans. Off by default — the
  /// disabled path costs one pointer test per would-be span.
  bool collect_trace = false;
  /// Slow-query threshold in milliseconds. When >= 0, FlexPath::QueryTpq
  /// logs a query at least this slow at WARN and appends it, with its
  /// trace, to the facade's slow-query log. The processor forces trace
  /// collection on for every run while a threshold is set, so the trace
  /// exists by the time the run is known to be slow. Negative (the
  /// default) disables the slow-query log.
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
  /// touched). Parallelism never changes results. DPO evaluates its
  /// relaxation rounds in waves of 1, 2, 4, ... rounds: a wave of one
  /// runs on the calling thread and fans its join steps out over tuple
  /// chunks, a larger wave runs one round per worker. A deterministic
  /// merge replays the serial stopping rules in round order and discards
  /// the rounds past the stopping point, counters included. Within one
  /// plan, chunk outputs and counters merge in chunk order. Answers,
  /// penalties, counters and trace structure are identical at any thread
  /// count (DESIGN.md §10). Run() rejects a value above kMaxThreads with
  /// InvalidArgument before any pool is built.
  size_t num_threads = 0;
  /// Soft per-query CPU budget in thread-CPU milliseconds, the quantity
  /// TopKResult::cpu_ms reports, <= 0 to disable (the default). Checked
  /// after each merged DPO round / encoded pass, never inside one, so a
  /// run that trips it stops relaxing and returns what it has, flagged
  /// budget_exhausted. The budget is advisory ("soft"): a round always
  /// runs to completion, so the overshoot is bounded by one wave of
  /// rounds. With both budgets disabled the execution path is unchanged:
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
  /// The run's execution trace: set whenever the run collected one
  /// (TopKOptions::collect_trace, or a slow_query_ms threshold), null
  /// otherwise.
  std::shared_ptr<const QueryTrace> trace;
};

/// Runs top-K queries against one indexed corpus. The FleXPath
/// architecture of Figure 7: relaxation generation + XPath-engine
/// evaluation + IR-engine contains evaluation + combination.
class TopKProcessor {
 public:
  /// All dependencies must outlive the processor. `ir` may be null when
  /// queries carry no contains predicates.
  TopKProcessor(const ElementIndex* index, const DocumentStats* stats,
                IrEngine* ir)
      : index_(index),
        stats_(stats),
        ir_(ir),
        actx_{index, stats, ir, &index->corpus().tags()},
        evaluator_(index, ir) {}

  /// Evaluates the top-K answers of `q` and all its relaxations
  /// (Definition 4) with the chosen algorithm. All three algorithms
  /// return the same answer set for the same query and K, up to ties;
  /// DPO assigns each relaxation round's answers a uniform structural
  /// score while SSO/Hybrid score per answer (Section 5.2.1).
  Result<TopKResult> Run(const Tpq& q, Algorithm algo,
                         const TopKOptions& opts);

 private:
  /// One run's query, options, relaxation schedule, trace, pool and CPU
  /// bill, shared by the algorithm loops (defined in topk.cc).
  struct RunContext;

  Result<TopKResult> RunDpo(const RunContext& ctx);
  Result<TopKResult> RunEncoded(const RunContext& ctx, EvalMode mode);

  /// Run()'s process-wide observability tail: the registry metrics and
  /// the trace root's closing annotations. Finishes `trace` when non-null
  /// and hands it to a successful `result`.
  void Record(Algorithm algo, double elapsed_ms, TraceCollector* trace,
              Result<TopKResult>* result);

  /// The pool serving `opts.num_threads`, or null for a serial run.
  /// Pools are created on first use and cached per size for the
  /// processor's lifetime, so concurrent Run() calls (even with different
  /// thread counts) share pools safely and never race a pool teardown.
  ThreadPool* PoolFor(const TopKOptions& opts);

  const ElementIndex* index_;
  const DocumentStats* stats_;
  IrEngine* ir_;
  /// The corpus statistics static pruning proves rounds empty with.
  const AnalyzerContext actx_;
  PlanEvaluator evaluator_;
  Mutex pools_mu_;
  std::map<size_t, std::unique_ptr<ThreadPool>> pools_ GUARDED_BY(pools_mu_);
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_TOPK_H_
