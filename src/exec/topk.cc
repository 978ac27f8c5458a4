#include "exec/topk.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <unordered_set>

#include "analysis/analyzer.h"
#include "common/cpu_timer.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "rank/scheme_registry.h"
#include "relax/schedule.h"

namespace flexpath {

namespace {

void SortByScheme(std::vector<RankedAnswer>* answers, RankScheme scheme) {
  auto before = [&](const RankedAnswer& a, const RankedAnswer& b) {
    if (RanksBefore(a.score, b.score, scheme)) return true;
    if (RanksBefore(b.score, a.score, scheme)) return false;
    return a.node < b.node;
  };
  // The DPO merge appends rounds in non-increasing score order and each
  // round arrives sorted, so the list is usually already in final order.
  // Answer nodes are unique (the seen-set dedups), making `before` a
  // strict total order — is_sorted therefore implies the exact order the
  // sort would produce, and skipping it is byte-identical (guarded by
  // the differential harness).
  if (std::is_sorted(answers->begin(), answers->end(), before)) return;
  std::sort(answers->begin(), answers->end(), before);
}

/// Attaches one round's or pass's counter delta to its span, one
/// annotation per field ("counters.<name>"), so traces carry the same
/// quantities the result-level ExecCounters aggregate.
void AnnotateCounters(TraceSpan* span, const ExecCounters& delta) {
  delta.ForEach([&](const char* name, uint64_t value) {
    span->Annotate(std::string("counters.") + name, value);
  });
}

/// Mirrors one successful query's counters into the process-wide
/// registry: a counter "exec.<field>" per summed field, the high-water
/// gauge exec.buckets_peak, and query.rounds_pruned_static. Fed from
/// TopKResult::counters, so the registry counts exactly the rounds and
/// passes the result merged; a discarded speculative round adds nothing.
void MirrorCounters(const ExecCounters& counters) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  ExecCounters::VisitFields(counters, [&](const char* name,
                                          const uint64_t& value,
                                          ExecCounters::Agg agg) {
    const std::string field = name;
    if (agg == ExecCounters::Agg::kMax) {
      reg.gauge("exec." + field)->Max(static_cast<int64_t>(value));
    } else {
      const char* layer = field == "rounds_pruned_static" ? "query." : "exec.";
      reg.counter(layer + field)->Inc(value);
    }
  });
}

/// The CPU bill of one query and its soft budgets (TopKOptions::max_cpu_ms
/// / max_tuples). The coordinating thread's CPU comes from the timer;
/// pool-worker CPU is folded in through AddOffThread as rounds and passes
/// report it, so the sum never counts a thread twice. Exhausted() is
/// called between rounds / encoded passes only, and with no budget set it
/// returns before reading any clock, so a budget-free run takes exactly
/// the path of a build without budgets.
class RunBudget {
 public:
  explicit RunBudget(const TopKOptions& opts)
      : max_cpu_ms_(opts.max_cpu_ms), max_tuples_(opts.max_tuples) {}

  void AddOffThread(double cpu_ms) { off_thread_cpu_ms_ += cpu_ms; }

  /// The query's CPU so far: the coordinator's and every pool worker's.
  double CpuMs() const { return cpu_.ElapsedMs() + off_thread_cpu_ms_; }

  /// True when a budget is spent; then flags `result` as partial.
  bool Exhausted(TopKResult* result) const {
    if (max_cpu_ms_ <= 0.0 && max_tuples_ == 0) return false;
    const bool spent =
        (max_tuples_ > 0 && result->counters.tuples_created >= max_tuples_) ||
        (max_cpu_ms_ > 0.0 && CpuMs() >= max_cpu_ms_);
    if (spent) result->budget_exhausted = true;
    return spent;
  }

 private:
  const double max_cpu_ms_;
  const uint64_t max_tuples_;
  const ThreadCpuTimer cpu_;
  double off_thread_cpu_ms_ = 0.0;
};

/// DPO's stopping rules (Section 5.1), read from the scheme's table row:
/// kAtK stops as soon as K answers exist (structure-first: relaxing only
/// lowers the primary key); kPenaltyMargin keeps going until the best
/// achievable key falls below (K-th round's score − margin), margin =
/// stop_margin_factor × m with m the total contains weight (combined:
/// factor 1); kExhaustive evaluates every relaxation (keyword-first: no
/// provable bound on future rounds).
class DpoStop {
 public:
  DpoStop(const SchemeCertificate& cert, const Tpq& q, const Weights& weights)
      : cert_(cert), base_(BaseStructuralScore(q, weights)) {
    for (VarId v : q.Vars()) {
      for (const FtExpr& e : q.node(v).contains) {
        m_ += weights.Of(Predicate::Contains(v, e));
      }
    }
  }

  /// True when a round at cumulative `penalty` is past the stopping point.
  bool Past(double penalty) const {
    return cert_.stop_rule == DpoStopRule::kPenaltyMargin &&
           base_ - penalty < stop_below_;
  }

  /// Applies the rule after merging a round at cumulative `penalty` that
  /// left `answers` answers; true when the run is complete.
  bool AfterRound(double penalty, size_t answers, size_t k) {
    const bool have_k = answers >= k;
    if (cert_.stop_rule == DpoStopRule::kAtK && have_k) return true;
    if (cert_.stop_rule == DpoStopRule::kPenaltyMargin && have_k &&
        stop_below_ == -std::numeric_limits<double>::infinity()) {
      stop_below_ = base_ - penalty - cert_.stop_margin_factor * m_;
    }
    // kExhaustive (e.g. keyword-first): run every round.
    return false;
  }

 private:
  const SchemeCertificate& cert_;
  const double base_;
  double m_ = 0.0;
  double stop_below_ = -std::numeric_limits<double>::infinity();
};

/// One DPO round of a wave. Everything a round produces is buffered
/// here; the merge decides, in round order, whether to accept it into
/// the result or discard it wholesale (speculation past the serial
/// stopping point contributes nothing, not even counters).
struct RoundOutput {
  Status status;  ///< Plan-build failure, if any.
  std::vector<RankedAnswer> answers;
  ExecCounters counters;
  /// The thread CPU the round burned on the thread that evaluated it. A
  /// worker round bills it; a round on the calling thread is already
  /// inside the coordinator's timer.
  double cpu_ms = 0.0;
  TraceSpan span;  ///< The round's finished span subtree, when tracing.
};

}  // namespace

/// What RunDpo and RunEncoded share: the query and its relaxation
/// schedule (depth 0 is the unrelaxed query, depth i applies the first i
/// schedule entries), the options, the trace, the pool and the CPU bill.
struct TopKProcessor::RunContext {
  const Tpq& q;
  const TopKOptions& opts;
  const SchemeCertificate& cert;
  const PenaltyModel& pm;
  const std::vector<ScheduleEntry> schedule;
  const AnalyzerContext& actx;
  TraceCollector* trace;
  ThreadPool* pool;
  RunBudget& budget;

  const Tpq& Relaxed(size_t depth) const {
    return depth == 0 ? q : schedule[depth - 1].relaxed;
  }
  double Penalty(size_t depth) const {
    return depth == 0 ? 0.0 : schedule[depth - 1].cumulative_penalty;
  }

  /// The predicates relaxed away at `depth`, rendered for a span.
  std::string DroppedNames(size_t depth) const {
    std::vector<std::string> names;
    if (depth > 0) {
      for (const Predicate& p : schedule[depth - 1].dropped) {
        names.push_back(p.ToString(actx.dict));
      }
    }
    return Join(names, ", ");
  }

  /// With static_prune, why the corpus statistics prove the query at
  /// `depth` has no answers; nullopt when they do not (or the option is
  /// off). The proof is sound, so skipping such a round or encoding
  /// changes only the work counters.
  std::optional<std::string> ProvablyEmpty(size_t depth) const {
    if (!opts.static_prune) return std::nullopt;
    return ProvablyEmptyReason(Relaxed(depth), actx);
  }

  /// Records `depth` as the deepest relaxation the result applied.
  void RecordDepth(size_t depth, TopKResult* result) const {
    result->relaxations_used = depth;
    if (depth > 0) {
      result->penalty_applied = Penalty(depth);
      result->predicates_dropped = schedule[depth - 1].dropped.size();
    }
  }
};

const char* AlgorithmName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kDpo:
      return "DPO";
    case Algorithm::kSso:
      return "SSO";
    case Algorithm::kHybrid:
      return "Hybrid";
  }
  return "unknown";
}

Result<TopKResult> TopKProcessor::Run(const Tpq& q, Algorithm algo,
                                      const TopKOptions& opts) {
  // A run refused up front still counts as a query and an error.
  const auto reject = [&](Status status) {
    Result<TopKResult> rejected = std::move(status);
    Record(algo, 0.0, nullptr, &rejected);
    return rejected;
  };
  if (opts.k == 0) return reject(Status::InvalidArgument("k must be positive"));
  if (opts.num_threads > kMaxThreads) {
    return reject(Status::InvalidArgument(
        "num_threads " + std::to_string(opts.num_threads) + " exceeds " +
        std::to_string(kMaxThreads)));
  }
  if (Status st = q.Validate(); !st.ok()) return reject(std::move(st));
  if (q.ContainsCount() > 0 && ir_ == nullptr) {
    return reject(Status::InvalidArgument(
        "query has contains predicates but no IR engine is attached"));
  }
  // Every optimization below reads the scheme's kSchemeTable row.
  const SchemeCertificate* cert =
      SchemeRegistry::Global().Certificate(opts.scheme);
  if (cert == nullptr) {
    return reject(Status::InvalidArgument(
        "unknown rank scheme value " +
        std::to_string(static_cast<unsigned>(opts.scheme)) +
        "; the schemes are structure-first (0), keyword-first (1) and "
        "combined (2)"));
  }

  const auto start = std::chrono::steady_clock::now();
  RunBudget budget(opts);
  std::optional<TraceCollector> collector;
  // A slow-query threshold forces collection so the slow log can carry
  // the span tree of the offending run.
  if (opts.collect_trace || opts.slow_query_ms >= 0.0) {
    collector.emplace("query");
    TraceSpan* root = collector->current();
    root->Annotate("algorithm", std::string(AlgorithmName(algo)));
    root->Annotate("k", static_cast<uint64_t>(opts.k));
    root->Annotate("scheme", std::string(RankSchemeName(opts.scheme)));
    root->Annotate("query", q.ToString(index_->corpus().tags()));
  }
  TraceCollector* trace = collector.has_value() ? &*collector : nullptr;
  ThreadPool* pool = PoolFor(opts);
  if (trace != nullptr) {
    collector->current()->Annotate(
        "threads", static_cast<uint64_t>(pool != nullptr ? pool->size() : 1));
  }
  Result<TopKResult> result = [&]() -> Result<TopKResult> {
    Span pm_span(trace, "penalty_model");
    const PenaltyModel pm(q, stats_, ir_, opts.weights);
    pm_span.Close();
    Span schedule_span(trace, "build_schedule");
    const RunContext ctx{q,      opts,  *cert, pm,    BuildSchedule(q, pm),
                         actx_, trace, pool,  budget};
    schedule_span.Annotate("entries",
                           static_cast<uint64_t>(ctx.schedule.size()));
    schedule_span.Close();
    switch (algo) {
      case Algorithm::kDpo:
        return RunDpo(ctx);
      case Algorithm::kSso:
        return RunEncoded(ctx, EvalMode::kSsoFlat);
      case Algorithm::kHybrid:
        return RunEncoded(ctx, EvalMode::kHybridBuckets);
    }
    return Status::InvalidArgument("unknown algorithm");
  }();
  if (result.ok()) {
    if (result->answers.size() > opts.k) result->answers.resize(opts.k);
    result->cpu_ms = budget.CpuMs();
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  Record(algo, elapsed_ms, trace, &result);
  return result;
}

void TopKProcessor::Record(Algorithm algo, double elapsed_ms,
                           TraceCollector* trace,
                           Result<TopKResult>* result) {
  static MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* m_queries = reg.counter("query.count");
  static Counter* m_errors = reg.counter("query.errors");
  static Counter* m_budget = reg.counter("query.budget_exhausted");
  static Histogram* m_cpu = reg.histogram("query.cpu_ms");
  static Histogram* m_latency[3] = {
      reg.histogram("query.latency_ms.dpo"),
      reg.histogram("query.latency_ms.sso"),
      reg.histogram("query.latency_ms.hybrid"),
  };
  m_queries->Inc();
  if (!result->ok()) {
    m_errors->Inc();
    return;
  }
  TopKResult& r = **result;
  m_latency[static_cast<size_t>(algo)]->Observe(elapsed_ms);
  m_cpu->Observe(r.cpu_ms);
  MirrorCounters(r.counters);
  if (r.budget_exhausted) m_budget->Inc();
  if (trace == nullptr) return;
  TraceSpan* root = trace->current();
  root->Annotate("relaxations_used", static_cast<uint64_t>(r.relaxations_used));
  root->Annotate("answers", static_cast<uint64_t>(r.answers.size()));
  root->Annotate("cpu_ms", r.cpu_ms);
  if (r.budget_exhausted) root->Annotate("budget_exhausted", uint64_t{1});
  r.trace = std::make_shared<const QueryTrace>(trace->Finish());
}

Result<TopKResult> TopKProcessor::RunDpo(const RunContext& ctx) {
  const TopKOptions& opts = ctx.opts;
  TopKResult result;
  std::unordered_set<NodeRef, NodeRefHash> seen;
  DpoStop stop(ctx.cert, ctx.q, opts.weights);
  auto past_stop = [&](size_t round) { return stop.Past(ctx.Penalty(round)); };

  // Builds and evaluates one round's plan into `out`, serially on the
  // thread that runs it: DPO runs in parallel only through its waves, so
  // no round fans out under a wave. When tracing, the round records
  // into its own collector, whose root span (shifted onto the query's
  // timeline by the wave's launch `offset`) the merge adopts in round
  // order. With static_prune, a round the corpus statistics prove empty
  // is answered without a plan.
  auto eval_round = [&](size_t round, bool on_worker, double offset,
                        RoundOutput* out) {
    const ThreadCpuTimer round_cpu;
    std::optional<TraceCollector> rc;
    if (ctx.trace != nullptr) {
      // Round 0 evaluates the unrelaxed query; every later span is one
      // relaxation round proper, so a DPO trace carries exactly
      // `relaxations_used` spans named "relaxation_round".
      rc.emplace(round == 0 ? "initial_round" : "relaxation_round");
      TraceSpan* span = rc->current();
      span->Annotate("round", static_cast<uint64_t>(round));
      span->Annotate("penalty", ctx.Penalty(round));
      if (round > 0) {
        const ScheduleEntry& entry = ctx.schedule[round - 1];
        span->Annotate("op", entry.op.ToString());
        span->Annotate("step_penalty", entry.step_penalty);
        span->Annotate("dropped", ctx.DroppedNames(round));
      }
      if (on_worker) {
        span->Annotate("worker",
                       static_cast<uint64_t>(ThreadPool::CurrentWorkerId()));
      }
    }
    TraceCollector* trace = rc.has_value() ? &*rc : nullptr;
    const std::optional<std::string> pruned = ctx.ProvablyEmpty(round);
    if (pruned.has_value()) {
      out->counters.rounds_pruned_static = 1;
    } else {
      Span build_span(trace, "plan_build");
      Result<JoinPlan> plan = JoinPlan::Build(ctx.q, ctx.Relaxed(round), {},
                                              ctx.pm, opts.weights);
      build_span.Close();
      if (!plan.ok()) {
        out->status = plan.status();
        return;
      }
      out->answers = evaluator_.Evaluate(*plan, EvalMode::kExact, opts.k,
                                         opts.scheme, ctx.Penalty(round),
                                         &out->counters, trace);
    }
    out->cpu_ms = round_cpu.ElapsedMs();
    if (trace != nullptr) {
      if (pruned.has_value()) rc->current()->Annotate("static_pruned", *pruned);
      AnnotateCounters(rc->current(), out->counters);
      rc->current()->Annotate("cpu_ms", out->cpu_ms);
      QueryTrace t = rc->Finish();
      t.root.ShiftBy(offset);
      out->span = std::move(t.root);
    }
  };

  // Merges one evaluated round into the result, replaying the serial
  // loop's bookkeeping. Returns true when the run is complete (a
  // stopping rule fired); later speculative rounds are then discarded.
  auto merge_round = [&](size_t round, RoundOutput&& out) -> bool {
    result.counters.Add(out.counters);
    // DPO appends: later rounds never outrank earlier ones
    // (structure-first), so no resorting — answers seen before keep
    // their earlier (higher) score.
    size_t new_answers = 0;
    for (RankedAnswer& a : out.answers) {
      if (seen.insert(a.node).second) {
        result.answers.push_back(std::move(a));
        ++new_answers;
      }
    }
    ctx.RecordDepth(round, &result);
    if (ctx.trace != nullptr) {
      out.span.Annotate("new_answers", static_cast<uint64_t>(new_answers));
      out.span.Annotate("answers_so_far",
                        static_cast<uint64_t>(result.answers.size()));
      ctx.trace->Adopt(std::move(out.span));
    }
    return stop.AfterRound(ctx.Penalty(round), result.answers.size(), opts.k);
  };

  // Rounds run in waves of sizes 1, 2, 4, ... capped at the pool size,
  // so the common case (round 0 already yields K answers) wastes
  // nothing, while relaxation-heavy queries quickly saturate the pool. A
  // wave of one runs on this thread; a larger wave puts one round per
  // worker. The merge replays rounds strictly in round order, so output
  // and counters match the serial loop exactly at any thread count.
  const size_t rounds = ctx.schedule.size() + 1;
  size_t next = 0;
  size_t wave = 1;
  bool done = false;
  while (!done && next < rounds && !past_stop(next)) {
    const size_t wave_n = std::min(wave, rounds - next);
    const double offset = ctx.trace != nullptr ? ctx.trace->NowMs() : 0.0;
    std::vector<RoundOutput> outs(wave_n);
    if (wave_n == 1) {
      eval_round(next, /*on_worker=*/false, offset, &outs[0]);
    } else {
      TaskGroup group(ctx.pool);
      for (size_t i = 0; i < wave_n; ++i) {
        group.Run([&, i] {
          eval_round(next + i, /*on_worker=*/true, offset, &outs[i]);
        });
      }
      group.Wait();
      // Rounds past the stopping point are speculation: billed here, but
      // nothing of theirs enters the result.
      for (const RoundOutput& out : outs) ctx.budget.AddOffThread(out.cpu_ms);
    }
    for (size_t i = 0; i < wave_n && !done; ++i) {
      done = past_stop(next + i);
      if (done) break;
      if (!outs[i].status.ok()) return outs[i].status;
      done = merge_round(next + i, std::move(outs[i])) ||
             ctx.budget.Exhausted(&result);
    }
    next += wave_n;
    if (ctx.pool != nullptr) wave = std::min(wave * 2, ctx.pool->size());
  }
  SortByScheme(&result.answers, opts.scheme);
  return result;
}

Result<TopKResult> TopKProcessor::RunEncoded(const RunContext& ctx,
                                             EvalMode mode) {
  const TopKOptions& opts = ctx.opts;
  const std::vector<ScheduleEntry>& schedule = ctx.schedule;
  TopKResult result;
  SelectivityEstimator estimator(stats_, ir_);

  // Statically pick how many relaxations to encode (SSO lines 3-7): keep
  // adding the next-cheapest relaxation while the estimate is short of K.
  Span estimate_span(ctx.trace, "selectivity_estimate");
  size_t encoded = 0;
  if (ctx.cert.stop_rule == DpoStopRule::kExhaustive) {
    // No provable bound on what later relaxations contribute (e.g.
    // keyword-first: any structural score can reach the top-K), so every
    // relaxation must be encoded (Section 5.1).
    encoded = schedule.size();
  } else {
    // Chain queries are nested (Q ⊂ Q_1 ⊂ ...), so the most relaxed
    // encoded query's estimate *is* the estimated answer count — no
    // summing across relaxations.
    double estimate = estimator.EstimateAnswers(ctx.q);
    while (estimate < static_cast<double>(opts.k) &&
           encoded < schedule.size()) {
      ++encoded;
      estimate = std::max(estimate, estimator.EstimateAnswers(
                                        schedule[encoded - 1].relaxed));
    }
    estimate_span.Annotate("estimated_answers", estimate);
  }
  estimate_span.Annotate("encoded", static_cast<uint64_t>(encoded));
  estimate_span.Close();

  // Answers come only from the final pass, and a provably-empty encoding
  // yields no answers, so the dynamic retry loop below would advance
  // straight past it — skip ahead without building those plans. The last
  // schedule entry is never skipped: with nothing left to advance to,
  // the loop must still run its pass to produce the result metadata.
  auto skip_provably_empty = [&] {
    while (encoded < schedule.size()) {
      std::optional<std::string> reason = ctx.ProvablyEmpty(encoded);
      if (!reason.has_value()) break;
      Span skip_span(ctx.trace, "static_prune_skip");
      skip_span.Annotate("encoded", static_cast<uint64_t>(encoded));
      skip_span.Annotate("static_pruned", *reason);
      ++encoded;
      ++result.counters.rounds_pruned_static;
    }
  };
  skip_provably_empty();

  bool prune = true;
  for (;;) {
    const std::set<Predicate> dropped =
        encoded == 0 ? std::set<Predicate>{} : schedule[encoded - 1].dropped;
    Span pass_span(ctx.trace, "encoded_pass");
    pass_span.Annotate("encoded", static_cast<uint64_t>(encoded));
    pass_span.Annotate("prune", prune ? "on" : "off");
    if (pass_span.active() && !dropped.empty()) {
      pass_span.Annotate("dropped", ctx.DroppedNames(encoded));
    }
    Span build_span(ctx.trace, "plan_build");
    Result<JoinPlan> plan = JoinPlan::Build(ctx.q, ctx.Relaxed(encoded),
                                            dropped, ctx.pm, opts.weights);
    build_span.Close();
    if (!plan.ok()) return plan.status();
    const uint64_t pruned_before = result.counters.tuples_pruned;
    ExecCounters pass_counters;
    const ThreadCpuTimer pass_cpu;
    double pass_worker_cpu_ms = 0.0;
    // SSO/Hybrid encode the whole relaxation batch into this one plan, so
    // the pass itself is the parallel unit: the evaluator fans each join
    // step out over tuple chunks on the pool.
    result.answers = evaluator_.Evaluate(
        *plan, mode, prune ? opts.k : 0, opts.scheme, 0.0, &pass_counters,
        ctx.trace, ctx.pool, &pass_worker_cpu_ms);
    result.counters.Add(pass_counters);
    ctx.budget.AddOffThread(pass_worker_cpu_ms);
    if (pass_span.active()) {
      // The pass span is the innermost open span again.
      AnnotateCounters(ctx.trace->current(), pass_counters);
      pass_span.Annotate("cpu_ms", pass_worker_cpu_ms + pass_cpu.ElapsedMs());
    }
    pass_span.Annotate("answers",
                       static_cast<uint64_t>(result.answers.size()));
    ctx.RecordDepth(encoded, &result);
    if (result.answers.size() >= opts.k) break;
    if (ctx.budget.Exhausted(&result)) break;
    // Fewer than K answers (SSO line 11). Two possible causes: the
    // threshold pruned tuples whose higher-bound competitors later died
    // (the threshold is optimistic, as in the paper) — retry the same
    // plan unpruned; or the selectivity estimate was short — encode one
    // more relaxation and restart.
    if (prune && result.counters.tuples_pruned > pruned_before) {
      prune = false;
      continue;
    }
    if (encoded >= schedule.size()) break;
    ++encoded;
    prune = true;
    skip_provably_empty();
  }
  return result;
}

ThreadPool* TopKProcessor::PoolFor(const TopKOptions& opts) {
  const size_t n = opts.num_threads == 0 ? ThreadPool::HardwareConcurrency()
                                         : opts.num_threads;
  if (n <= 1) return nullptr;
  MutexLock lock(pools_mu_);
  std::unique_ptr<ThreadPool>& slot = pools_[n];
  if (slot == nullptr) slot = std::make_unique<ThreadPool>(n);
  return slot.get();
}

}  // namespace flexpath
