// Ablation: the data-relaxation strategy (APPROXML [14], Section 7) vs
// FleXPath's query-side relaxation. The paper dismisses data relaxation
// because it was "shown to quickly fail with large databases" — the
// shortcut closure carries Θ(N·depth) edges. This bench quantifies both
// the closure's build cost/size (reported as counters) and query latency
// against the Hybrid engine answering the equivalent fully-relaxed query.
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "bench/data_relaxation.h"
#include "exec/evaluator.h"
#include "exec/plan.h"
#include "relax/relaxation.h"

namespace {

using flexpath::bench_util::GetFixtureMb;

/// One extra timed run of `op`, reported as this benchmark's JSON line.
/// These ablations bypass TopKProcessor, so counters stay empty and
/// "answers" carries the op's result count.
template <typename OpFn>
void EmitOpJson(flexpath::bench_util::Fixture& fixture,
                const char* algorithm, OpFn op) {
  const auto start = std::chrono::steady_clock::now();
  const size_t answers = op();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  flexpath::bench_util::EmitJsonLine("abl_data_relaxation", algorithm, 0,
                                     fixture.target_bytes, elapsed_ms,
                                     flexpath::ExecCounters{}, 0, answers);
}

flexpath::DataRelaxationIndex& ClosureFor(flexpath::bench_util::Fixture& f,
                                          double mb) {
  static auto& cache =
      *new std::map<double, flexpath::DataRelaxationIndex*>();
  auto it = cache.find(mb);
  if (it == cache.end()) {
    it = cache.emplace(mb, new flexpath::DataRelaxationIndex(&f.corpus))
             .first;
  }
  return *it->second;
}

void BM_DataRelaxationBuild(benchmark::State& state) {
  const double mb = static_cast<double>(state.range(0));
  auto& fixture = GetFixtureMb(mb);
  for (auto _ : state) {
    flexpath::DataRelaxationIndex closure(&fixture.corpus);
    benchmark::DoNotOptimize(closure.edge_count());
    state.counters["edges"] = static_cast<double>(closure.edge_count());
    state.counters["closure_mb"] =
        static_cast<double>(closure.ApproxBytes()) / (1024.0 * 1024.0);
    state.counters["tree_edges"] =
        static_cast<double>(fixture.corpus.TotalNodes());
  }
  EmitOpJson(fixture, "DataRelaxationBuild", [&] {
    flexpath::DataRelaxationIndex closure(&fixture.corpus);
    return closure.edge_count();
  });
}

void BM_DataRelaxationQuery(benchmark::State& state) {
  const double mb = static_cast<double>(state.range(0));
  auto& fixture = GetFixtureMb(mb);
  flexpath::DataRelaxationIndex& closure = ClosureFor(fixture, mb);
  flexpath::Tpq q = fixture.Parse(flexpath::bench_util::kQ2);
  for (auto _ : state) {
    auto answers = closure.Evaluate(q, fixture.ir.get());
    benchmark::DoNotOptimize(answers);
    state.counters["answers"] = static_cast<double>(answers.size());
  }
  EmitOpJson(fixture, "DataRelaxationQuery", [&] {
    return closure.Evaluate(q, fixture.ir.get()).size();
  });
}

void BM_QueryRelaxationQuery(benchmark::State& state) {
  // The query-side equivalent: exact evaluation of Q2 with every edge
  // axis-generalized — the same answer set the shortcut graph yields —
  // through the normal interval-encoded plan engine.
  const double mb = static_cast<double>(state.range(0));
  auto& fixture = GetFixtureMb(mb);
  flexpath::Tpq q =
      fixture.Parse("//item[.//description[.//parlist] and "
                    ".//mailbox[.//mail[.//text]]]");
  flexpath::PenaltyModel pm(q, fixture.stats.get(), fixture.ir.get(),
                            flexpath::Weights{});
  flexpath::Result<flexpath::JoinPlan> plan =
      flexpath::JoinPlan::Build(q, q, {}, pm, flexpath::Weights{});
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  flexpath::PlanEvaluator evaluator(fixture.index.get(), fixture.ir.get());
  for (auto _ : state) {
    auto answers = evaluator.Evaluate(
        *plan, flexpath::EvalMode::kExact, 0,
        flexpath::RankScheme::kStructureFirst, 0.0, nullptr);
    benchmark::DoNotOptimize(answers);
    state.counters["answers"] = static_cast<double>(answers.size());
  }
  EmitOpJson(fixture, "QueryRelaxationQuery", [&] {
    return evaluator
        .Evaluate(*plan, flexpath::EvalMode::kExact, 0,
                  flexpath::RankScheme::kStructureFirst, 0.0, nullptr)
        .size();
  });
}

}  // namespace

BENCHMARK(BM_DataRelaxationBuild)->Arg(1)->Arg(5)->Arg(10);
BENCHMARK(BM_DataRelaxationQuery)->Arg(1)->Arg(5);
BENCHMARK(BM_QueryRelaxationQuery)->Arg(1)->Arg(5)->Arg(10);

BENCHMARK_MAIN();
