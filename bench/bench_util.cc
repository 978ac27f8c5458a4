#include "bench/bench_util.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/json_util.h"
#include "common/metrics.h"
#include "query/xpath_parser.h"
#include "xmark/generator.h"

namespace flexpath {
namespace bench_util {

Tpq Fixture::Parse(const char* xpath) {
  Result<Tpq> q = ParseXPath(xpath, corpus.tags());
  if (!q.ok()) {
    std::fprintf(stderr, "bench query parse failed: %s\n",
                 q.status().ToString().c_str());
    std::abort();
  }
  return *std::move(q);
}

Fixture& GetFixture(uint64_t bytes) {
  // Cached for the binary's lifetime; intentionally leaked (benchmarks
  // exit right after, and fixture teardown order vs. static destructors
  // is not worth the risk).
  static auto& cache = *new std::map<uint64_t, Fixture*>();
  auto it = cache.find(bytes);
  if (it != cache.end()) return *it->second;

  auto* fixture = new Fixture();
  fixture->target_bytes = bytes;
  XMarkOptions opts;
  opts.target_bytes = bytes;
  opts.seed = 42;
  Result<Document> doc = GenerateXMark(opts, fixture->corpus.tags());
  if (!doc.ok()) {
    std::fprintf(stderr, "xmark generation failed: %s\n",
                 doc.status().ToString().c_str());
    std::abort();
  }
  fixture->corpus.Add(std::move(doc).value());
  fixture->index = std::make_unique<ElementIndex>(&fixture->corpus);
  fixture->stats = std::make_unique<DocumentStats>(&fixture->corpus);
  fixture->ir = std::make_unique<IrEngine>(&fixture->corpus);
  fixture->processor = std::make_unique<TopKProcessor>(
      fixture->index.get(), fixture->stats.get(), fixture->ir.get());
  cache.emplace(bytes, fixture);
  return *fixture;
}

bool FullScale() {
  const char* env = std::getenv("FLEXPATH_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

Fixture& GetFixtureMb(double mb) {
  return GetFixture(static_cast<uint64_t>(mb * 1024.0 * 1024.0));
}

double SmallDocMb() { return 1.0; }

double MediumDocMb() { return 10.0; }

double LargeDocMb() { return FullScale() ? 100.0 : 20.0; }

double SweepSizeMb(int index) {
  static constexpr double kFull[] = {1, 5, 10, 25, 50, 100};
  static constexpr double kDefault[] = {1, 2, 5, 10, 15, 20};
  return FullScale() ? kFull[index] : kDefault[index];
}

TopKResult RunTopK(Fixture& fixture, const Tpq& q, Algorithm algo, size_t k,
                   RankScheme scheme, size_t threads) {
  TopKOptions opts;
  opts.k = k;
  opts.scheme = scheme;
  opts.num_threads = threads;
  Result<TopKResult> result = fixture.processor->Run(q, algo, opts);
  if (!result.ok()) {
    std::fprintf(stderr, "top-k run failed: %s\n",
                 result.status().ToString().c_str());
    std::abort();
  }
  return *std::move(result);
}

void EmitJsonLine(const std::string& bench, const char* algorithm, size_t k,
                  uint64_t corpus_bytes, double elapsed_ms,
                  const ExecCounters& counters, size_t relaxations,
                  size_t answers, size_t threads,
                  const std::string* metrics_json) {
  std::string line = "{\"bench\":\"";
  line += JsonEscape(bench);
  line += "\",\"algorithm\":\"";
  line += JsonEscape(algorithm);
  line += "\",\"k\":" + std::to_string(k);
  line += ",\"corpus_bytes\":" + std::to_string(corpus_bytes);
  char ms[32];
  std::snprintf(ms, sizeof(ms), "%.3f", elapsed_ms);
  line += ",\"elapsed_ms\":";
  line += ms;
  line += ",\"relaxations_used\":" + std::to_string(relaxations);
  line += ",\"answers\":" + std::to_string(answers);
  line += ",\"threads\":" + std::to_string(threads);
  line += ",\"counters\":{";
  bool first = true;
  counters.ForEach([&](const char* name, uint64_t value) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += name;
    line += "\":" + std::to_string(value);
  });
  line += '}';
  if (metrics_json != nullptr) {
    line += ",\"metrics\":" + *metrics_json;
  }
  line += '}';
  std::fprintf(stderr, "%s\n", line.c_str());
}

TopKResult EmitTopKRunJson(const std::string& bench, Fixture& fixture,
                           const Tpq& q, Algorithm algo, size_t k,
                           RankScheme scheme, size_t threads) {
  // Zero the process-wide registry so the emitted line (and an embedded
  // metrics snapshot) reflects this run alone, not every configuration
  // the bench binary executed before it.
  MetricsRegistry::Global().ResetAll();
  const auto start = std::chrono::steady_clock::now();
  TopKResult result = RunTopK(fixture, q, algo, k, scheme, threads);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  const char* want_metrics = std::getenv("FLEXPATH_BENCH_METRICS");
  if (want_metrics != nullptr && want_metrics[0] == '1') {
    const std::string metrics =
        MetricsToJson(MetricsRegistry::Global().Snapshot());
    EmitJsonLine(bench, AlgorithmName(algo), k, fixture.target_bytes,
                 elapsed_ms, result.counters, result.relaxations_used,
                 result.answers.size(), threads, &metrics);
  } else {
    EmitJsonLine(bench, AlgorithmName(algo), k, fixture.target_bytes,
                 elapsed_ms, result.counters, result.relaxations_used,
                 result.answers.size(), threads);
  }
  return result;
}

}  // namespace bench_util
}  // namespace flexpath
