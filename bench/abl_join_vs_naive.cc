// Ablation: the stack-based structural join of Al-Khalifa et al. [1] vs
// a nested-loop baseline, on real XMark tag lists of growing size. It
// times StructuralJoin on its own: no FleXPath plan calls it. A plan
// joins in PlanEvaluator::Evaluate, by probing each anchor's interval
// in the step's sorted scan list (UpperBoundFrom).
#include <benchmark/benchmark.h>

#include <chrono>

#include "bench/bench_util.h"
#include "exec/structural_join.h"

namespace {

/// One timed run of `join`, reported as this benchmark's JSON line. The
/// structural-join ablation bypasses TopKProcessor, so k and relaxations
/// are zero and the counters are empty; "answers" is the pair count.
template <typename JoinFn>
void EmitJoinJson(flexpath::bench_util::Fixture& fixture,
                  const char* algorithm, JoinFn join) {
  const auto start = std::chrono::steady_clock::now();
  auto pairs = join();
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  flexpath::bench_util::EmitJsonLine("abl_join_vs_naive", algorithm, 0,
                                     fixture.target_bytes, elapsed_ms,
                                     flexpath::ExecCounters{}, 0,
                                     pairs.size());
}

void BM_StackJoin(benchmark::State& state) {
  using flexpath::bench_util::GetFixture;

  auto& fixture = flexpath::bench_util::GetFixtureMb(
      static_cast<double>(state.range(0)));
  const flexpath::TagDict& dict = std::as_const(fixture.corpus).tags();
  const auto& items = fixture.index->Scan(dict.Lookup("item"));
  const auto& texts = fixture.index->Scan(dict.Lookup("text"));
  for (auto _ : state) {
    auto pairs =
        flexpath::StructuralJoin(fixture.corpus, items, texts, false);
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["ancestors"] = static_cast<double>(items.size());
  state.counters["descendants"] = static_cast<double>(texts.size());
  EmitJoinJson(fixture, "StackJoin", [&] {
    return flexpath::StructuralJoin(fixture.corpus, items, texts, false);
  });
}

void BM_NestedLoopJoin(benchmark::State& state) {
  using flexpath::bench_util::GetFixture;

  auto& fixture = flexpath::bench_util::GetFixtureMb(
      static_cast<double>(state.range(0)));
  const flexpath::TagDict& dict = std::as_const(fixture.corpus).tags();
  const auto& items = fixture.index->Scan(dict.Lookup("item"));
  const auto& texts = fixture.index->Scan(dict.Lookup("text"));
  for (auto _ : state) {
    auto pairs =
        flexpath::NestedLoopJoin(fixture.corpus, items, texts, false);
    benchmark::DoNotOptimize(pairs);
  }
  EmitJoinJson(fixture, "NestedLoopJoin", [&] {
    return flexpath::NestedLoopJoin(fixture.corpus, items, texts, false);
  });
}

}  // namespace

BENCHMARK(BM_StackJoin)->Arg(1)->Arg(5)->Arg(10);
BENCHMARK(BM_NestedLoopJoin)->Arg(1)->Arg(5);

BENCHMARK_MAIN();
