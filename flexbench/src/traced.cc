// The traced run: per-layer metrics timed from outside the program.
//
// Each op of a fixed prefix of the op stream runs in this order:
//   [storage]  FlexPath::OpenPacked on a fresh session (packed only)
//   [query]    ParseXPath
//   [ir]       IrEngine::Evaluate of each contains expression, so the IR
//              cache sees the same state the untraced run's op would
//   [facade]   FlexPath::QueryTpq, the op itself (registry counter deltas
//              are read around ir + facade)
//   [storage]  the same QueryTpq again on the now-warm session (packed)
//   [exec]     a standalone TopKProcessor::Run on the same index/stats/IR
//   [replay]   PenaltyModel, BuildSchedule, SelectivityEstimator,
//              JoinPlan::Build and PlanEvaluator::Evaluate called one by
//              one, in the order TopKProcessor drives them
// No span inside the program is used; every time is a call timed here.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/analyzer.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "exec/evaluator.h"
#include "exec/plan.h"
#include "exec/selectivity.h"
#include "json.h"
#include "modes.h"
#include "query/xpath_parser.h"
#include "rank/scheme_registry.h"
#include "relax/penalty.h"
#include "relax/schedule.h"

namespace flexbench {

namespace {

using flexpath::Algorithm;
using flexpath::FlexPath;
using flexpath::Result;
using flexpath::TopKOptions;
using flexpath::TopKResult;
using flexpath::Tpq;

/// Registry counters read as deltas around the IR calls and the facade.
const std::vector<const char*>& CounterNames() {
  static const auto* names = new std::vector<const char*>{
      "ir.evaluate_calls",      "ir.cache_hits",
      "ir.cache_evictions",     "ir.postings_scanned",
      "ir.satisfying_nodes",    "storage.doc_decodes",
      "storage.doc_decode_bytes", "storage.cold_block_decodes",
      "storage.elem_pool_hits", "storage.elem_pool_misses",
      "storage.post_pool_hits", "storage.post_pool_misses",
  };
  return *names;
}

std::vector<uint64_t> ReadCounters() {
  std::vector<uint64_t> out;
  for (const char* name : CounterNames()) {
    out.push_back(flexpath::MetricsRegistry::Global().counter(name)->Value());
  }
  return out;
}

/// Sums over the traced ops; each becomes a per-op mean or a ratio.
struct Totals {
  double open_ms = 0, parse_ms = 0, ir_ms = 0, facade_ms = 0;
  double facade_warm_ms = 0, topk_ms = 0, penalty_ms = 0, schedule_ms = 0;
  double estimate_ms = 0, plan_build_ms = 0, evaluate_ms = 0;
  double serial_ms = 0, serial_cpu_ms = 0, par_ms = 0, par_cpu_ms = 0;
  double schedule_entries = 0, relaxations_used = 0, rounds_pruned = 0;
  double plan_passes = 0, encoded_ops = 0, encoded_passes = 0;
  double tuples_created = 0, candidates_probed = 0, tuples_pruned = 0;
  double score_sorted_items = 0, buckets_peak = 0, answers = 0;
  std::vector<double> counters = std::vector<double>(CounterNames().size());
  std::vector<double> op_ms;  ///< User-visible op time, raw.
};

/// Times one op's layers by calling each public entry point in turn, as
/// TopKProcessor drives them (serial evaluation order, no result cache).
/// Returns the number of plan passes the replay ran.
uint64_t ReplayLayers(FlexPath& fp, const Tpq& q, Algorithm algo,
                      const TopKOptions& opts, const TopKResult& facade,
                      flexpath::ThreadPool* pool, Totals* t) {
  flexpath::IrEngine* ir = fp.ir_engine();
  const flexpath::DocumentStats* stats = fp.stats();
  const flexpath::ElementIndex* index = fp.element_index();
  flexpath::PlanEvaluator evaluator(index, ir);
  flexpath::ExecCounters counters;

  Clock::time_point at = Clock::now();
  const flexpath::PenaltyModel pm(q, stats, ir, opts.weights);
  t->penalty_ms += MsSince(at);
  at = Clock::now();
  const std::vector<flexpath::ScheduleEntry> schedule =
      flexpath::BuildSchedule(q, pm);
  t->schedule_ms += MsSince(at);
  t->schedule_entries += static_cast<double>(schedule.size());

  flexpath::AnalyzerContext actx;
  actx.index = index;
  actx.stats = stats;
  actx.ir = ir;
  actx.dict = &index->corpus().tags();
  auto provably_empty = [&](const Tpq& relaxed) {
    return opts.static_prune &&
           flexpath::ProvablyEmptyReason(relaxed, actx).has_value();
  };
  auto relaxed_at = [&](size_t i) -> const Tpq& {
    return i == 0 ? q : schedule[i - 1].relaxed;
  };
  uint64_t passes = 0;
  auto build_and_evaluate = [&](size_t i, const std::set<flexpath::Predicate>&
                                              dropped,
                                flexpath::EvalMode mode, size_t k,
                                double penalty) {
    Clock::time_point start = Clock::now();
    Result<flexpath::JoinPlan> plan =
        flexpath::JoinPlan::Build(q, relaxed_at(i), dropped, pm, opts.weights);
    t->plan_build_ms += MsSince(start);
    if (!plan.ok()) return size_t{0};
    start = Clock::now();
    const size_t n = evaluator
                         .Evaluate(*plan, mode, k, opts.scheme, penalty,
                                   &counters, nullptr, pool)
                         .size();
    t->evaluate_ms += MsSince(start);
    ++passes;
    return n;
  };

  if (algo == Algorithm::kDpo) {
    // DPO evaluated rounds 0..relaxations_used (the facade reports how far
    // its stopping rule let it go).
    for (size_t round = 0; round <= facade.relaxations_used; ++round) {
      if (provably_empty(relaxed_at(round))) continue;
      const double penalty =
          round == 0 ? 0.0 : schedule[round - 1].cumulative_penalty;
      build_and_evaluate(round, {}, flexpath::EvalMode::kExact, opts.k,
                         penalty);
    }
    return passes;
  }

  const flexpath::EvalMode mode = algo == Algorithm::kSso
                                      ? flexpath::EvalMode::kSsoFlat
                                      : flexpath::EvalMode::kHybridBuckets;
  const flexpath::SchemeCertificate* cert =
      flexpath::SchemeRegistry::Global().Certificate(opts.scheme);
  at = Clock::now();
  size_t encoded = 0;
  if (cert != nullptr &&
      cert->stop_rule == flexpath::DpoStopRule::kExhaustive) {
    encoded = schedule.size();
  } else {
    flexpath::SelectivityEstimator estimator(stats, ir);
    double estimate = estimator.EstimateAnswers(q);
    while (estimate < static_cast<double>(opts.k) &&
           encoded < schedule.size()) {
      ++encoded;
      estimate = std::max(
          estimate, estimator.EstimateAnswers(schedule[encoded - 1].relaxed));
    }
  }
  t->estimate_ms += MsSince(at);
  auto skip_provably_empty = [&] {
    while (encoded < schedule.size() && provably_empty(relaxed_at(encoded))) {
      ++encoded;
    }
  };
  skip_provably_empty();
  bool prune = true;
  for (;;) {
    const uint64_t pruned_before = counters.tuples_pruned;
    const size_t answers = build_and_evaluate(
        encoded,
        encoded == 0 ? std::set<flexpath::Predicate>{}
                     : schedule[encoded - 1].dropped,
        mode, prune ? opts.k : 0, 0.0);
    if (answers >= opts.k) break;
    if (prune && counters.tuples_pruned > pruned_before) {
      prune = false;
      continue;
    }
    if (encoded >= schedule.size()) break;
    ++encoded;
    prune = true;
    skip_provably_empty();
  }
  return passes;
}

void AddResult(const TopKResult& r, Algorithm algo, Totals* t) {
  const flexpath::ExecCounters& c = r.counters;
  t->relaxations_used += static_cast<double>(r.relaxations_used);
  t->rounds_pruned += static_cast<double>(c.rounds_pruned_static);
  t->plan_passes += static_cast<double>(c.plan_passes);
  if (algo != Algorithm::kDpo) {
    t->encoded_ops += 1;
    t->encoded_passes += static_cast<double>(c.plan_passes);
  }
  t->tuples_created += static_cast<double>(c.tuples_created);
  t->candidates_probed += static_cast<double>(c.candidates_probed);
  t->tuples_pruned += static_cast<double>(c.tuples_pruned);
  t->score_sorted_items += static_cast<double>(c.score_sorted_items);
  t->buckets_peak += static_cast<double>(c.buckets_peak);
  t->answers += static_cast<double>(r.answers.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int RunTraced(const RunContext& ctx) {
  Engine& engine = *ctx.engine;
  const WorkloadSpec& spec = engine.spec();
  const size_t n_ops = std::max<size_t>(
      4, static_cast<size_t>(spec.trace_ops_per_second * ctx.seconds + 0.5));
  std::unique_ptr<flexpath::ThreadPool> pool;
  if (spec.threads > 1) {
    pool = std::make_unique<flexpath::ThreadPool>(spec.threads);
  }

  Totals t;
  std::vector<double> kernel_ms;
  for (const SetupSample& s : ctx.setups) {
    kernel_ms.push_back(s.kernel_before_ms);
    kernel_ms.push_back(s.kernel_after_ms);
  }
  uint64_t failed = 0;
  uint64_t replay_mismatches = 0;
  std::unordered_set<std::string> shapes;
  std::unordered_set<std::string> keys;
  double shape_repeats = 0;
  double exact_repeats = 0;

  std::unique_ptr<flexpath::TopKProcessor> processor;
  OpStream stream(spec, ctx.seed, /*stream_id=*/0);
  for (size_t i = 0; i < n_ops; ++i) {
    if (i % 8 == 0) kernel_ms.push_back(ctx.kernel->MeasureMs());
    const Op op = stream.Next();
    shape_repeats += shapes.insert(op.shape).second ? 0 : 1;
    exact_repeats += keys.insert(op.Key()).second ? 0 : 1;
    const TopKOptions opts = engine.Options(op);

    std::optional<FlexPath> session;
    double open_ms = 0.0;
    if (spec.packed) {
      const Clock::time_point at = Clock::now();
      session.emplace();
      if (!session->OpenPacked(engine.packed_path()).ok()) {
        ++failed;
        continue;
      }
      open_ms = MsSince(at);
    }
    FlexPath& fp = spec.packed ? *session : engine.memory();

    Clock::time_point at = Clock::now();
    Result<Tpq> q = flexpath::ParseXPath(op.xpath, fp.tags());
    const double parse_ms = MsSince(at);
    if (!q.ok()) {
      ++failed;
      continue;
    }

    const std::vector<uint64_t> before = ReadCounters();
    double ir_ms = 0.0;
    if (q->ContainsCount() > 0) {
      at = Clock::now();
      for (flexpath::VarId v : q->Vars()) {
        for (const flexpath::FtExpr& e : q->node(v).contains) {
          fp.ir_engine()->Evaluate(e);
        }
      }
      ir_ms = MsSince(at);
    }
    const double cpu_start = ProcessCpuMs();
    at = Clock::now();
    Result<TopKResult> r = fp.QueryTpq(*q, opts, op.algo, op.xpath);
    const double facade_ms = MsSince(at);
    const double facade_cpu_ms = ProcessCpuMs() - cpu_start;
    const std::vector<uint64_t> after = ReadCounters();
    if (!r.ok()) {
      ++failed;
      continue;
    }
    for (size_t c = 0; c < after.size(); ++c) {
      t.counters[c] += static_cast<double>(after[c] - before[c]);
    }
    const uint64_t digest = ResultDigest(*r);
    bool ok = true;

    double warm_ms = facade_ms;
    if (spec.packed) {
      at = Clock::now();
      Result<TopKResult> warm = fp.QueryTpq(*q, opts, op.algo, op.xpath);
      warm_ms = MsSince(at);
      ok &= warm.ok() && ResultDigest(*warm) == digest;
      Result<TopKResult> ref = engine.RunReference(op);
      ok &= ref.ok() && ResultDigest(*ref) == digest;
    }

    // In memory the standalone processor lives across ops, as the facade's
    // does, so its thread pool is created once; a packed session gets its
    // own (serial) one.
    if (spec.packed || processor == nullptr) {
      processor = std::make_unique<flexpath::TopKProcessor>(
          fp.element_index(), fp.stats(), fp.ir_engine());
    }
    at = Clock::now();
    Result<TopKResult> standalone = processor->Run(*q, op.algo, opts);
    const double topk_ms = MsSince(at);
    ok &= standalone.ok() && ResultDigest(*standalone) == digest;

    if (pool != nullptr) {
      TopKOptions serial = opts;
      serial.num_threads = 1;
      const double serial_cpu_start = ProcessCpuMs();
      at = Clock::now();
      Result<TopKResult> s = fp.QueryTpq(*q, serial, op.algo, op.xpath);
      t.serial_ms += MsSince(at);
      t.serial_cpu_ms += ProcessCpuMs() - serial_cpu_start;
      t.par_ms += facade_ms;
      t.par_cpu_ms += facade_cpu_ms;
      ok &= s.ok() && ResultDigest(*s) == digest;
    }

    const uint64_t passes =
        ReplayLayers(fp, *q, op.algo, opts, *r, pool.get(), &t);
    if (passes != r->counters.plan_passes) {
      ++replay_mismatches;
      std::fprintf(stderr,
                   "replay ran %llu plan passes, the facade %llu: %s\n",
                   static_cast<unsigned long long>(passes),
                   static_cast<unsigned long long>(r->counters.plan_passes),
                   op.Key().c_str());
    }
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "answer mismatch: %s\n", op.Key().c_str());
    }

    t.open_ms += open_ms;
    t.parse_ms += parse_ms;
    t.ir_ms += ir_ms;
    t.facade_ms += facade_ms;
    t.facade_warm_ms += warm_ms;
    t.topk_ms += topk_ms;
    t.op_ms.push_back(open_ms + parse_ms + ir_ms + facade_ms);
    AddResult(*r, op.algo, &t);
  }

  const double n = static_cast<double>(n_ops);
  auto counter = [&](const char* name) {
    for (size_t c = 0; c < CounterNames().size(); ++c) {
      if (std::string(CounterNames()[c]) == name) return t.counters[c];
    }
    return 0.0;
  };
  std::vector<double> setup_parse;
  std::vector<double> setup_build;
  std::vector<double> setup_pack;
  for (const SetupSample& s : ctx.setups) {
    setup_parse.push_back(s.times.xml_parse_ms);
    setup_build.push_back(s.times.build_ms);
    setup_pack.push_back(s.times.pack_ms);
  }
  const double cold_penalty_ms =
      spec.packed ? t.facade_ms - t.facade_warm_ms : 0.0;
  const double facade_total = t.open_ms + t.parse_ms + t.ir_ms + t.facade_ms;
  const double layers_total = t.open_ms + t.parse_ms + t.ir_ms + t.penalty_ms +
                              t.schedule_ms + t.estimate_ms + t.plan_build_ms +
                              t.evaluate_ms + cold_penalty_ms;
  const double pool_hits =
      counter("storage.elem_pool_hits") + counter("storage.post_pool_hits");
  const double pool_misses =
      counter("storage.elem_pool_misses") + counter("storage.post_pool_misses");
  double op_total_ms = 0.0;
  for (double ms : t.op_ms) op_total_ms += ms;

  const std::vector<std::pair<const char*, double>> metrics = {
      {"query.parse_ms", t.parse_ms / n},
      {"relax.penalty_ms", t.penalty_ms / n},
      {"relax.schedule_ms", t.schedule_ms / n},
      {"relax.schedule_entries", t.schedule_entries / n},
      {"relax.schedule_used_ratio",
       Ratio(t.relaxations_used, t.schedule_entries)},
      {"analysis.rounds_pruned_static", t.rounds_pruned / n},
      {"exec.estimate_ms", t.estimate_ms / n},
      {"exec.plan_build_ms", t.plan_build_ms / n},
      {"exec.plan_passes", t.plan_passes / n},
      {"exec.restart_ratio",
       Ratio(t.encoded_passes - t.encoded_ops, t.encoded_passes)},
      {"exec.evaluate_ms", t.evaluate_ms / n},
      {"exec.tuples_created", t.tuples_created / n},
      {"exec.candidates_probed", t.candidates_probed / n},
      {"exec.tuples_pruned", t.tuples_pruned / n},
      {"exec.score_sorted_items", t.score_sorted_items / n},
      {"exec.buckets_peak", t.buckets_peak / n},
      {"exec.answers_per_tuple", Ratio(t.answers, t.tuples_created)},
      {"exec.topk_ms", t.topk_ms / n},
      {"core.query_overhead_ms", (t.facade_warm_ms - t.topk_ms) / n},
      {"ir.evaluate_ms", t.ir_ms / n},
      {"ir.evaluate_calls", counter("ir.evaluate_calls") / n},
      {"ir.cache_hit_ratio",
       Ratio(counter("ir.cache_hits"), counter("ir.evaluate_calls"))},
      {"ir.cache_evictions", counter("ir.cache_evictions")},
      {"ir.postings_scanned", counter("ir.postings_scanned") / n},
      {"ir.satisfying_nodes", counter("ir.satisfying_nodes") / n},
      {"storage.open_ms", t.open_ms / n},
      {"storage.cold_penalty_ms", cold_penalty_ms / n},
      {"storage.doc_decodes", counter("storage.doc_decodes") / n},
      {"storage.doc_decode_bytes", counter("storage.doc_decode_bytes") / n},
      {"storage.cold_block_decodes", counter("storage.cold_block_decodes") / n},
      {"storage.pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses)},
      {"storage.pack_ms", Median(setup_pack)},
      {"xml.parse_ms", Median(setup_parse)},
      {"stats.build_ms", Median(setup_build)},
      {"pool.speedup", Ratio(t.serial_ms, t.par_ms)},
      {"pool.cpu_ratio", Ratio(t.par_cpu_ms, t.serial_cpu_ms)},
      {"layers.unattributed_ratio", 1.0 - Ratio(layers_total, facade_total)},
      {"host.calib_ms", Median(kernel_ms)},
      {"host.raw_throughput_qps", Ratio(n * 1000.0, op_total_ms)},
      {"host.raw_latency_p50_ms", Median(t.op_ms)},
      {"workload.shape_repeat_ratio", shape_repeats / n},
      {"workload.exact_repeat_ratio", exact_repeats / n},
      {"workload.answers_per_op", t.answers / n},
  };

  std::string out = "{";
  AppendKey(&out, "mode", true);
  AppendString(&out, "trace");
  AppendKey(&out, "workload", false);
  AppendString(&out, spec.name);
  AppendKey(&out, "attempted", false);
  AppendNumber(&out, n);
  AppendKey(&out, "failed", false);
  AppendNumber(&out, static_cast<double>(failed));
  AppendKey(&out, "replay_mismatches", false);
  AppendNumber(&out, static_cast<double>(replay_mismatches));
  AppendKey(&out, "facade_ms_per_op", false);
  AppendNumber(&out, facade_total / n);
  AppendKey(&out, "metrics", false);
  out += '{';
  for (size_t i = 0; i < metrics.size(); ++i) {
    AppendKey(&out, metrics[i].first, i == 0);
    AppendNumber(&out, metrics[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace flexbench
