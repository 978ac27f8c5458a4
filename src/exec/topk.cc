#include "exec/topk.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <unordered_set>

#include "analysis/analyzer.h"
#include "analysis/score_algebra.h"
#include "common/cpu_timer.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"
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

/// Attaches one round's counter delta to its span, one annotation per
/// field ("counters.<name>"), so traces carry the same quantities the
/// result-level ExecCounters aggregate.
void AnnotateCounters(Span* span, const ExecCounters& delta) {
  if (!span->active()) return;
  delta.ForEach([&](const char* name, uint64_t value) {
    span->Annotate(std::string("counters.") + name, value);
  });
}

/// Same, for a raw span — the worker-collector path, where the round
/// span is a collector root rather than a Span RAII handle.
void AnnotateCounters(TraceSpan* span, const ExecCounters& delta) {
  delta.ForEach([&](const char* name, uint64_t value) {
    span->Annotate(std::string("counters.") + name, value);
  });
}

/// The CPU bill of one algorithm run and its soft budgets
/// (TopKOptions::max_cpu_ms / max_tuples). The coordinating thread's CPU
/// comes from the timer; pool-worker CPU is folded in through
/// AddOffThread as rounds and passes report it. Exhausted() is called
/// between rounds / encoded passes only, and with no budget set it
/// returns before reading any clock, so a budget-free run takes exactly
/// the path of a build without budgets.
class RunBudget {
 public:
  explicit RunBudget(const TopKOptions& opts)
      : max_cpu_ms_(opts.max_cpu_ms), max_tuples_(opts.max_tuples) {}

  void AddOffThread(double cpu_ms) { off_thread_cpu_ms_ += cpu_ms; }

  /// CPU the run burned off the coordinating thread. Run() adds the
  /// coordinator's own timer on top to form TopKResult::cpu_ms.
  double off_thread_cpu_ms() const { return off_thread_cpu_ms_; }

  /// True when a budget is spent; then flags `result` as partial and
  /// records the trip in the flight recorder.
  bool Exhausted(TopKResult* result) const {
    if (max_cpu_ms_ <= 0.0 && max_tuples_ == 0) return false;
    const uint64_t tuples = result->counters.tuples_created;
    const double cpu_ms = cpu_.ElapsedMs() + off_thread_cpu_ms_;
    const bool spent = (max_tuples_ > 0 && tuples >= max_tuples_) ||
                       (max_cpu_ms_ > 0.0 && cpu_ms >= max_cpu_ms_);
    if (!spent) return false;
    result->budget_exhausted = true;
    FlightRecorder::Global().Record(FlightEventType::kBudgetTrip, tuples,
                                    max_tuples_, cpu_ms);
    return true;
  }

 private:
  const double max_cpu_ms_;
  const uint64_t max_tuples_;
  const ThreadCpuTimer cpu_;
  double off_thread_cpu_ms_ = 0.0;
};

/// One DPO round evaluated speculatively by a wave worker. Everything a
/// round produces is buffered here; the merge decides — in round order —
/// whether to accept it into the result or discard it wholesale
/// (speculation past the serial stopping point contributes nothing, not
/// even counters).
struct RoundOutput {
  Status status;  ///< Plan-build failure, if any.
  std::vector<RankedAnswer> answers;
  ExecCounters counters;
  /// Every thread-CPU millisecond the round burned — the evaluating
  /// thread's own and any nested pool fan-out's.
  double cpu_ms = 0.0;
  /// The share of cpu_ms spent on threads *other than* the one
  /// that called eval_round. The caller needs the split to avoid double
  /// counting: an inline round's own CPU is already inside the
  /// coordinator's timer, a wave-worker round's is not.
  double off_thread_cpu_ms = 0.0;
  TraceSpan span;         ///< The round's finished span subtree.
  bool has_span = false;  ///< Set on the worker-collector path only.
  bool pruned = false;    ///< Skipped: static analysis proved it empty.
  std::string prune_reason;
};

}  // namespace

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
  if (opts.k == 0) return Status::InvalidArgument("k must be positive");
  FLEXPATH_RETURN_IF_ERROR(q.Validate());
  if (q.ContainsCount() > 0 && ir_ == nullptr) {
    return Status::InvalidArgument(
        "query has contains predicates but no IR engine is attached");
  }
  // Every optimization below runs on the scheme's certificate; a value
  // the registry has never seen has no certificate and cannot execute.
  // (Certified custom schemes come from SchemeRegistry::Register, which
  // refuses algebras the certifier refutes — DESIGN.md §16.)
  const SchemeCertificate* cert =
      SchemeRegistry::Global().Certificate(opts.scheme);
  if (cert == nullptr) {
    return Status::InvalidArgument(
        "unknown rank scheme value " +
        std::to_string(static_cast<unsigned>(opts.scheme)) +
        "; register custom schemes through SchemeRegistry::Register so "
        "the certifier can prove the optimizations sound");
  }

  const auto start = std::chrono::steady_clock::now();
  // Coordinator CPU; pool-worker CPU is measured at task boundaries and
  // folded in below, so the sum never double-counts a thread.
  const ThreadCpuTimer query_cpu;
  const uint64_t fingerprint = FingerprintTpq(q, index_->corpus().tags());
  FlightRecorder::Global().Record(FlightEventType::kQueryStart, fingerprint,
                                  opts.k);
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
    PenaltyModel pm(q, stats_, ir_, opts.weights);
    pm_span.Close();
    switch (algo) {
      case Algorithm::kDpo:
        return RunDpo(q, opts, *cert, pm, trace, pool);
      case Algorithm::kSso:
        return RunEncoded(q, opts, *cert, pm, EvalMode::kSsoFlat, trace, pool);
      case Algorithm::kHybrid:
        return RunEncoded(q, opts, *cert, pm, EvalMode::kHybridBuckets, trace,
                          pool);
    }
    return Status::InvalidArgument("unknown algorithm");
  }();

  static MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* m_queries = reg.counter("query.count");
  static Counter* m_errors = reg.counter("query.errors");
  static Counter* m_pruned = reg.counter("query.rounds_pruned_static");
  static Counter* m_budget = reg.counter("query.budget_exhausted");
  static Histogram* m_cpu = reg.histogram("query.cpu_ms");
  static Histogram* m_latency[3] = {
      reg.histogram("query.latency_ms.dpo"),
      reg.histogram("query.latency_ms.sso"),
      reg.histogram("query.latency_ms.hybrid"),
  };
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  m_queries->Inc();
  if (!result.ok()) {
    m_errors->Inc();
  } else {
    // The algorithm left only the off-coordinator CPU in cpu_ms.
    result->cpu_ms += query_cpu.ElapsedMs();
    m_latency[static_cast<size_t>(algo)]->Observe(elapsed_ms);
    m_cpu->Observe(result->cpu_ms);
    const uint64_t pruned = result->counters.rounds_pruned_static;
    if (pruned > 0) m_pruned->Inc(pruned);
    if (result->budget_exhausted) m_budget->Inc();
  }
  FlightRecorder::Global().Record(
      FlightEventType::kQueryEnd, fingerprint,
      result.ok() ? result->answers.size() : 0, elapsed_ms);

  std::shared_ptr<const QueryTrace> finished;
  if (trace != nullptr) {
    TraceSpan* root = collector->current();
    if (result.ok()) {
      root->Annotate("relaxations_used",
                     static_cast<uint64_t>(result->relaxations_used));
      root->Annotate("answers",
                     static_cast<uint64_t>(result->answers.size()));
      root->Annotate("cpu_ms", result->cpu_ms);
      if (result->budget_exhausted) {
        root->Annotate("budget_exhausted", uint64_t{1});
      }
    }
    finished = std::make_shared<const QueryTrace>(collector->Finish());
    if (result.ok() && opts.collect_trace) result->trace = finished;
  }

  const bool slow =
      opts.slow_query_ms >= 0.0 && elapsed_ms >= opts.slow_query_ms;
  const bool log_debug =
      Logger::Global().Enabled(LogLevel::kDebug, "exec");
  if (query_stats_ != nullptr || slow || log_debug) {
    const TagDict& dict = index_->corpus().tags();
    QueryExecution exec;
    exec.fingerprint = fingerprint;
    exec.query = q.ToString(dict);
    exec.algorithm = AlgorithmName(algo);
    exec.scheme = RankSchemeName(opts.scheme);
    exec.k = opts.k;
    exec.latency_ms = elapsed_ms;
    if (result.ok()) {
      exec.relaxations = result->relaxations_used;
      exec.predicates_dropped = result->predicates_dropped;
      exec.penalty = result->penalty_applied;
      exec.answers = result->answers.size();
      exec.cpu_ms = result->cpu_ms;
      exec.counters = result->counters;
      exec.budget_exhausted = result->budget_exhausted;
    } else {
      exec.error = true;
    }
    if (query_stats_ != nullptr) {
      query_stats_->Record(exec);
      if (slow) query_stats_->RecordSlow(exec, opts.slow_query_ms, finished);
    }
    if (slow) {
      FlightRecorder::Global().Record(FlightEventType::kSlowQuery,
                                      fingerprint, exec.answers, elapsed_ms);
      FLEXPATH_LOG_WARN(
          "exec", "slow query",
          {"fingerprint", FingerprintHex(exec.fingerprint)},
          {"query", exec.query}, {"algorithm", exec.algorithm},
          {"latency_ms", exec.latency_ms},
          {"threshold_ms", opts.slow_query_ms},
          {"relaxations", exec.relaxations}, {"answers", exec.answers});
    } else if (log_debug) {
      FLEXPATH_LOG_DEBUG(
          "exec", exec.error ? "query failed" : "query executed",
          {"fingerprint", FingerprintHex(exec.fingerprint)},
          {"query", exec.query}, {"algorithm", exec.algorithm},
          {"latency_ms", exec.latency_ms},
          {"relaxations", exec.relaxations}, {"answers", exec.answers});
    }
  }
  return result;
}

Result<TopKResult> TopKProcessor::RunDpo(const Tpq& q,
                                         const TopKOptions& opts,
                                         const SchemeCertificate& cert,
                                         const PenaltyModel& pm,
                                         TraceCollector* trace,
                                         ThreadPool* pool) {
  TopKResult result;
  RunBudget budget(opts);

  Span schedule_span(trace, "build_schedule");
  const std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
  schedule_span.Annotate("entries", static_cast<uint64_t>(schedule.size()));
  schedule_span.Close();

  // Stopping rules (Section 5.1), read from the scheme's certificate:
  // kAtK stops as soon as K answers exist (structure-first: relaxing
  // only lowers the primary key); kPenaltyMargin keeps going until the
  // best achievable key falls below (K-th round's score − margin),
  // margin = stop_margin_factor × m with m the total contains weight
  // (combined: factor 1); kExhaustive evaluates every relaxation
  // (keyword-first: no provable bound on future rounds).
  std::unordered_set<NodeRef, NodeRefHash> seen;
  double stop_below = -std::numeric_limits<double>::infinity();
  const double base = BaseStructuralScore(q, opts.weights);
  const double m = [&] {
    double total = 0.0;
    for (VarId v : q.Vars()) {
      for (const FtExpr& e : q.node(v).contains) {
        total += opts.weights.Of(Predicate::Contains(v, e));
      }
    }
    return total;
  }();

  auto round_penalty = [&](size_t round) {
    return round == 0 ? 0.0 : schedule[round - 1].cumulative_penalty;
  };

  // Annotates a round span (RAII or collector-root) with the round's
  // identity — shared by the serial and worker paths so both produce the
  // same span, in the same annotation order.
  auto annotate_round = [&](auto* span, size_t round) {
    span->Annotate("round", static_cast<uint64_t>(round));
    span->Annotate("penalty", round_penalty(round));
    if (round > 0) {
      const ScheduleEntry& entry = schedule[round - 1];
      span->Annotate("op", entry.op.ToString());
      span->Annotate("step_penalty", entry.step_penalty);
      std::vector<std::string> dropped;
      dropped.reserve(entry.dropped.size());
      for (const Predicate& p : entry.dropped) {
        dropped.push_back(p.ToString(&index_->corpus().tags()));
      }
      span->Annotate("dropped", Join(dropped, ", "));
    }
  };

  AnalyzerContext actx;
  actx.index = index_;
  actx.stats = stats_;
  actx.ir = ir_;
  actx.dict = &index_->corpus().tags();

  // Builds and evaluates one round's plan. `evpool` parallelizes within
  // the plan — non-null only when the round itself runs on the calling
  // thread (a worker-side nested fan-out would run inline anyway).
  // With static_prune, a round the corpus statistics prove empty is
  // answered without a plan: the proof is sound, so the round's output
  // (no answers) is exactly what evaluation would have produced, and
  // the merge bookkeeping below still runs for it — the result differs
  // from the unpruned run only in work counters.
  auto eval_round = [&](size_t round, TraceCollector* rc, ThreadPool* evpool,
                        RoundOutput* out) {
    // Everything this round costs, starting now: the evaluating thread's
    // CPU comes from this timer; nested pool fan-outs report theirs
    // through Evaluate's worker_cpu_ms out-param below.
    const ThreadCpuTimer round_cpu;
    const Tpq& relaxed = round == 0 ? q : schedule[round - 1].relaxed;
    if (opts.static_prune) {
      if (std::optional<std::string> reason =
              ProvablyEmptyReason(relaxed, actx)) {
        out->pruned = true;
        out->prune_reason = *std::move(reason);
        out->counters.rounds_pruned_static = 1;
        FlightRecorder::Global().Record(FlightEventType::kRoundSkip, round,
                                        0, round_penalty(round));
        out->cpu_ms = round_cpu.ElapsedMs();
        return;
      }
    }
    FlightRecorder::Global().Record(FlightEventType::kRoundStart, round, 0,
                                    round_penalty(round));
    Span build_span(rc, "plan_build");
    Result<JoinPlan> plan = JoinPlan::Build(q, relaxed, {}, pm, opts.weights);
    build_span.Close();
    if (!plan.ok()) {
      out->status = plan.status();
      out->cpu_ms = round_cpu.ElapsedMs();
      return;
    }
    out->answers = evaluator_.Evaluate(*plan, EvalMode::kExact, opts.k,
                                       opts.scheme, round_penalty(round),
                                       &out->counters, rc, evpool,
                                       &out->off_thread_cpu_ms);
    // Evaluate reports only its pool-worker time; adding the timer
    // completes the round's bill while the split stays recoverable.
    out->cpu_ms = out->off_thread_cpu_ms + round_cpu.ElapsedMs();
  };

  // Merges one evaluated round into the result, replaying the serial
  // loop's bookkeeping. Returns true when the run is complete (a
  // stopping rule fired); later speculative rounds are then discarded.
  auto merge_round = [&](size_t round, RoundOutput&& out,
                         Span* inline_span) -> bool {
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
    result.relaxations_used = round;
    if (round > 0) {
      result.penalty_applied = round_penalty(round);
      result.predicates_dropped = schedule[round - 1].dropped.size();
    }
    if (inline_span != nullptr) {
      inline_span->Annotate("new_answers",
                            static_cast<uint64_t>(new_answers));
      inline_span->Annotate("answers_so_far",
                            static_cast<uint64_t>(result.answers.size()));
    } else if (out.has_span) {
      out.span.Annotate("new_answers", static_cast<uint64_t>(new_answers));
      out.span.Annotate("answers_so_far",
                        static_cast<uint64_t>(result.answers.size()));
      trace->Adopt(std::move(out.span));
    }
    const bool have_k = result.answers.size() >= opts.k;
    if (cert.stop_rule == DpoStopRule::kAtK && have_k) return true;
    if (cert.stop_rule == DpoStopRule::kPenaltyMargin && have_k &&
        stop_below == -std::numeric_limits<double>::infinity()) {
      stop_below = base - round_penalty(round) - cert.stop_margin_factor * m;
    }
    // kExhaustive (e.g. keyword-first): run every round.
    return false;
  };

  // Rounds run in waves of speculative evaluations: sizes 1, 2, 4, ...
  // capped at the pool size, so the common case (round 0 already yields
  // K answers) wastes nothing, while relaxation-heavy queries quickly
  // saturate the pool. A wave of one runs inline on this thread with
  // within-plan parallelism; larger waves put one whole round per
  // worker. The merge replays rounds strictly in round order, so output
  // and counters match the serial loop exactly at any thread count.
  size_t next_round = 0;
  size_t wave = 1;
  bool done = false;
  while (!done && next_round <= schedule.size()) {
    const size_t wave_n =
        std::min(wave, schedule.size() + 1 - next_round);
    if (wave_n == 1 || pool == nullptr) {
      const size_t round = next_round;
      if (cert.stop_rule == DpoStopRule::kPenaltyMargin &&
          base - round_penalty(round) < stop_below) {
        break;
      }
      // Round 0 evaluates the unrelaxed query; every later span is one
      // relaxation round proper, so a DPO trace carries exactly
      // `relaxations_used` spans named "relaxation_round".
      Span round_span(trace,
                      round == 0 ? "initial_round" : "relaxation_round");
      annotate_round(&round_span, round);
      RoundOutput out;
      eval_round(round, trace, pool, &out);
      if (!out.status.ok()) return out.status;
      if (out.pruned) round_span.Annotate("static_pruned", out.prune_reason);
      AnnotateCounters(&round_span, out.counters);
      round_span.Annotate("cpu_ms", out.cpu_ms);
      budget.AddOffThread(out.off_thread_cpu_ms);
      done = merge_round(round, std::move(out), &round_span);
      if (!done && budget.Exhausted(&result)) done = true;
      ++next_round;
    } else {
      // Spawn the wave. Each worker assembles its round's span subtree in
      // its own collector (root = the round span); the merge grafts
      // accepted subtrees into the parent trace in round order, shifted
      // onto the parent timeline by the wave's launch offset.
      const double offset = trace != nullptr ? trace->NowMs() : 0.0;
      std::vector<RoundOutput> outs(wave_n);
      TaskGroup group(pool);
      for (size_t i = 0; i < wave_n; ++i) {
        const size_t round = next_round + i;
        group.Run([&, round, i] {
          RoundOutput* out = &outs[i];
          std::optional<TraceCollector> wc;
          if (trace != nullptr) {
            wc.emplace(round == 0 ? "initial_round" : "relaxation_round");
            annotate_round(wc->current(), round);
            wc->current()->Annotate(
                "worker",
                static_cast<uint64_t>(ThreadPool::CurrentWorkerId()));
          }
          eval_round(round, wc.has_value() ? &*wc : nullptr, nullptr, out);
          if (wc.has_value()) {
            if (out->pruned) {
              wc->current()->Annotate("static_pruned", out->prune_reason);
            }
            AnnotateCounters(wc->current(), out->counters);
            wc->current()->Annotate("cpu_ms", out->cpu_ms);
            QueryTrace t = wc->Finish();
            t.root.ShiftBy(offset);
            out->span = std::move(t.root);
            out->has_span = true;
          }
        });
      }
      group.Wait();
      // Every wave round ran off the coordinating thread, so its whole
      // bill — merged or discarded — is off-thread CPU the query burned.
      for (size_t i = 0; i < wave_n; ++i) {
        budget.AddOffThread(outs[i].cpu_ms);
      }
      size_t merged = 0;
      for (size_t i = 0; i < wave_n && !done; ++i) {
        const size_t round = next_round + i;
        if (cert.stop_rule == DpoStopRule::kPenaltyMargin &&
            base - round_penalty(round) < stop_below) {
          done = true;
          break;
        }
        if (!outs[i].status.ok()) return outs[i].status;
        done = merge_round(round, std::move(outs[i]), nullptr);
        merged = i + 1;
        if (!done && budget.Exhausted(&result)) done = true;
      }
      // Speculation past the stopping point: the rounds ran, their CPU is
      // billed above, but nothing of theirs enters the result.
      if (done) {
        for (size_t i = merged; i < wave_n; ++i) {
          FlightRecorder::Global().Record(FlightEventType::kRoundDiscard,
                                          next_round + i);
        }
      }
      next_round += wave_n;
    }
    if (pool != nullptr) wave = std::min(wave * 2, pool->size());
  }

  SortByScheme(&result.answers, opts.scheme);
  if (result.answers.size() > opts.k) result.answers.resize(opts.k);
  // Hand Run() only the off-coordinator CPU; it adds its own coordinator
  // timer on top.
  result.cpu_ms = budget.off_thread_cpu_ms();
  return result;
}

Result<TopKResult> TopKProcessor::RunEncoded(const Tpq& q,
                                             const TopKOptions& opts,
                                             const SchemeCertificate& cert,
                                             const PenaltyModel& pm,
                                             EvalMode mode,
                                             TraceCollector* trace,
                                             ThreadPool* pool) {
  TopKResult result;
  RunBudget budget(opts);
  Span schedule_span(trace, "build_schedule");
  const std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
  schedule_span.Annotate("entries", static_cast<uint64_t>(schedule.size()));
  schedule_span.Close();
  SelectivityEstimator estimator(stats_, ir_);

  // Statically pick how many relaxations to encode (SSO lines 3-7): keep
  // adding the next-cheapest relaxation while the estimate is short of K.
  Span estimate_span(trace, "selectivity_estimate");
  size_t encoded = 0;
  if (cert.stop_rule == DpoStopRule::kExhaustive) {
    // No provable bound on what later relaxations contribute (e.g.
    // keyword-first: any structural score can reach the top-K), so every
    // relaxation must be encoded (Section 5.1).
    encoded = schedule.size();
  } else {
    // Chain queries are nested (Q ⊂ Q_1 ⊂ ...), so the most relaxed
    // encoded query's estimate *is* the estimated answer count — no
    // summing across relaxations.
    double estimate = estimator.EstimateAnswers(q);
    while (estimate < static_cast<double>(opts.k) &&
           encoded < schedule.size()) {
      ++encoded;
      estimate = std::max(
          estimate, estimator.EstimateAnswers(schedule[encoded - 1].relaxed));
    }
    estimate_span.Annotate("estimated_answers", estimate);
  }
  estimate_span.Annotate("encoded", static_cast<uint64_t>(encoded));
  estimate_span.Close();

  AnalyzerContext actx;
  actx.index = index_;
  actx.stats = stats_;
  actx.ir = ir_;
  actx.dict = &index_->corpus().tags();

  // Answers come only from the final pass, and a provably-empty encoding
  // yields no answers, so the dynamic retry loop below would advance
  // straight past it — skip ahead without building those plans. The last
  // schedule entry is never skipped: with nothing left to advance to,
  // the loop must still run its pass to produce the result metadata.
  auto skip_provably_empty = [&] {
    if (!opts.static_prune) return;
    while (encoded < schedule.size()) {
      const Tpq& cur = encoded == 0 ? q : schedule[encoded - 1].relaxed;
      std::optional<std::string> reason = ProvablyEmptyReason(cur, actx);
      if (!reason.has_value()) break;
      Span skip_span(trace, "static_prune_skip");
      skip_span.Annotate("encoded", static_cast<uint64_t>(encoded));
      skip_span.Annotate("static_pruned", *reason);
      ++encoded;
      ++result.counters.rounds_pruned_static;
    }
  };
  skip_provably_empty();

  bool prune = true;
  for (;;) {
    const Tpq& relaxed = encoded == 0 ? q : schedule[encoded - 1].relaxed;
    const std::set<Predicate> dropped =
        encoded == 0 ? std::set<Predicate>{} : schedule[encoded - 1].dropped;
    Span pass_span(trace, "encoded_pass");
    pass_span.Annotate("encoded", static_cast<uint64_t>(encoded));
    pass_span.Annotate("prune", prune ? "on" : "off");
    if (pass_span.active() && !dropped.empty()) {
      std::vector<std::string> names;
      names.reserve(dropped.size());
      for (const Predicate& p : dropped) {
        names.push_back(p.ToString(&index_->corpus().tags()));
      }
      pass_span.Annotate("dropped", Join(names, ", "));
    }
    Span build_span(trace, "plan_build");
    Result<JoinPlan> plan =
        JoinPlan::Build(q, relaxed, dropped, pm, opts.weights);
    build_span.Close();
    if (!plan.ok()) return plan.status();
    const uint64_t pruned_before = result.counters.tuples_pruned;
    ExecCounters pass_counters;
    const ThreadCpuTimer pass_cpu;
    double pass_worker_cpu_ms = 0.0;
    FlightRecorder::Global().Record(FlightEventType::kRoundStart, encoded);
    // SSO/Hybrid encode the whole relaxation batch into this one plan, so
    // the pass itself is the parallel unit: the evaluator fans each join
    // step out over tuple chunks on the pool.
    result.answers = evaluator_.Evaluate(*plan, mode, prune ? opts.k : 0,
                                         opts.scheme, 0.0, &pass_counters,
                                         trace, pool, &pass_worker_cpu_ms);
    result.counters.Add(pass_counters);
    budget.AddOffThread(pass_worker_cpu_ms);
    AnnotateCounters(&pass_span, pass_counters);
    if (pass_span.active()) {
      pass_span.Annotate("cpu_ms", pass_worker_cpu_ms + pass_cpu.ElapsedMs());
    }
    pass_span.Annotate("answers",
                       static_cast<uint64_t>(result.answers.size()));
    result.relaxations_used = encoded;
    if (encoded > 0) {
      result.penalty_applied = schedule[encoded - 1].cumulative_penalty;
      result.predicates_dropped = schedule[encoded - 1].dropped.size();
    }
    if (result.answers.size() >= opts.k) break;
    if (budget.Exhausted(&result)) break;
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

  if (result.answers.size() > opts.k) result.answers.resize(opts.k);
  // As in RunDpo: only the off-coordinator CPU travels back.
  result.cpu_ms = budget.off_thread_cpu_ms();
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
