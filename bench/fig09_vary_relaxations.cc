// Figure 9: DPO vs SSO on a 1MB document, K = 50, for queries Q1/Q2/Q3 —
// Q1 admits no relaxation at this K, Q2 a couple, Q3 several. The paper's
// claim: SSO <= DPO, with the gap growing with the number of relaxations.
#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

namespace {

void BM_Fig09(benchmark::State& state, flexpath::Algorithm algo,
              const char* query) {
  auto& fixture = flexpath::bench_util::GetFixtureMb(
      flexpath::bench_util::SmallDocMb());
  flexpath::Tpq q = fixture.Parse(query);
  flexpath::TopKResult result;
  for (auto _ : state) {
    result = flexpath::bench_util::RunTopK(fixture, q, algo, 50);
    benchmark::DoNotOptimize(result);
  }
  state.counters["relaxations"] =
      static_cast<double>(result.relaxations_used);
  state.counters["answers"] = static_cast<double>(result.answers.size());
  state.counters["plan_passes"] =
      static_cast<double>(result.counters.plan_passes);
  flexpath::bench_util::EmitTopKRunJson(std::string("fig09/") + query,
                                        fixture, q, algo, 50);
}

}  // namespace

BENCHMARK_CAPTURE(BM_Fig09, Q1_DPO, flexpath::Algorithm::kDpo,
                  flexpath::bench_util::kQ1);
BENCHMARK_CAPTURE(BM_Fig09, Q1_SSO, flexpath::Algorithm::kSso,
                  flexpath::bench_util::kQ1);
BENCHMARK_CAPTURE(BM_Fig09, Q2_DPO, flexpath::Algorithm::kDpo,
                  flexpath::bench_util::kQ2);
BENCHMARK_CAPTURE(BM_Fig09, Q2_SSO, flexpath::Algorithm::kSso,
                  flexpath::bench_util::kQ2);
BENCHMARK_CAPTURE(BM_Fig09, Q3_DPO, flexpath::Algorithm::kDpo,
                  flexpath::bench_util::kQ3);
BENCHMARK_CAPTURE(BM_Fig09, Q3_SSO, flexpath::Algorithm::kSso,
                  flexpath::bench_util::kQ3);

BENCHMARK_MAIN();
