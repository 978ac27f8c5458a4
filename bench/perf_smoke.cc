// CI perf smoke for the sub-plan result cache (DESIGN.md §12): runs the
// Figure 9 Q3 DPO workload on a small XMark corpus twice in one process
// with the shared cache tier, then
//   - asserts the warm run had a non-zero cache hit-rate (exit 1 if the
//     cache silently stopped working),
//   - asserts warm-run executor work (candidates probed) dropped below
//     the cold run's — the "measurably faster via counters" check, which
//     holds on a 1-core box where wall-clock comparisons would be noise,
//   - asserts the answers of cold, warm and cache-off runs are identical,
//   - packs the same-size corpus into the single-file storage format
//     (DESIGN.md §17), opens it mmap-backed, runs the workload cold
//     (first touch decodes pages into the buffer pools) and warm (pool
//     hits), asserts both runs answer byte-identically to the in-memory
//     build, and records pack/open times, cold/warm latency, and a
//     bytes-resident proxy (buffer-pool bytes + decoded document bytes),
//   - writes a BENCH_topk.json artifact (--out PATH to move it; default
//     ./BENCH_topk.json) with the runs' timings, counters, resource
//     usage, and the cold/warm speedup. ci/bench_compare.py diffs that
//     file against the committed ci/bench_baseline.json and warns — does
//     not fail — on wall-time regressions.
// Exit status 0 = healthy; any violated invariant prints a diagnostic
// and exits 1 so the CI job fails.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "core/flexpath.h"
#include "xmark/generator.h"

namespace {

using flexpath::Algorithm;
using flexpath::CacheTier;
using flexpath::TopKResult;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

std::string AnswerKey(const TopKResult& r) {
  std::string s;
  for (const flexpath::RankedAnswer& a : r.answers) {
    // Sequential appends: GCC 12's -Wrestrict misfires on chained +.
    s += std::to_string(a.node.doc);
    s += ":";
    s += std::to_string(a.node.node);
    s += "/";
    s += std::to_string(a.score.ss);
    s += "+";
    s += std::to_string(a.score.ks);
    s += ";";
  }
  s += "penalty=";
  s += std::to_string(r.penalty_applied);
  s += ",dropped=";
  s += std::to_string(r.predicates_dropped);
  return s;
}

void AppendRunJson(std::string* out, const char* name, const TopKResult& r,
                   double elapsed_ms) {
  *out += "\"";
  *out += name;
  *out += "\":{\"elapsed_ms\":" + std::to_string(elapsed_ms);
  *out += ",\"answers\":" + std::to_string(r.answers.size());
  *out += ",\"relaxations_used\":" + std::to_string(r.relaxations_used);
  *out += ",\"counters\":{";
  bool first = true;
  r.counters.ForEach([&](const char* field, uint64_t value) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += field;
    *out += "\":" + std::to_string(value);
  });
  *out += "},\"usage\":{";
  first = true;
  r.usage.ForEach([&](const char* field, double value) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += field;
    *out += "\":" + std::to_string(value);
  });
  *out += "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_topk.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  auto& fixture = flexpath::bench_util::GetFixtureMb(1.0);
  const flexpath::Tpq q = fixture.Parse(flexpath::bench_util::kQ3);
  constexpr size_t kK = 50;

  // Reference run without any caching.
  auto ref_start = std::chrono::steady_clock::now();
  const TopKResult reference = flexpath::bench_util::RunTopK(
      fixture, q, Algorithm::kDpo, kK, flexpath::RankScheme::kStructureFirst,
      /*threads=*/1, CacheTier::kOff);
  const double reference_ms = MsSince(ref_start);

  auto start = std::chrono::steady_clock::now();
  const TopKResult cold = flexpath::bench_util::RunTopK(
      fixture, q, Algorithm::kDpo, kK, flexpath::RankScheme::kStructureFirst,
      /*threads=*/1, CacheTier::kShared);
  const double cold_ms = MsSince(start);

  start = std::chrono::steady_clock::now();
  const TopKResult warm = flexpath::bench_util::RunTopK(
      fixture, q, Algorithm::kDpo, kK, flexpath::RankScheme::kStructureFirst,
      /*threads=*/1, CacheTier::kShared);
  const double warm_ms = MsSince(start);

  // Packed-corpus storage engine: the same XMark document through
  // FlexPath's pack → mmap-open → query path. The cold run pays the lazy
  // block decodes; the warm run must be served from the buffer pools.
  flexpath::FlexPath mem;
  {
    flexpath::XMarkOptions xopts;
    xopts.target_bytes = fixture.target_bytes;
    xopts.seed = 42;
    flexpath::Result<flexpath::Document> doc =
        flexpath::GenerateXMark(xopts, mem.tags());
    if (!doc.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", doc.status().ToString().c_str());
      return 1;
    }
    if (flexpath::Result<flexpath::DocId> id =
            mem.AddDocument(std::move(doc).value());
        !id.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", id.status().ToString().c_str());
      return 1;
    }
  }
  const std::string packed_path = std::string(out_path) + ".corpus.fxp";
  start = std::chrono::steady_clock::now();
  if (flexpath::Status st = mem.SavePacked(packed_path); !st.ok()) {
    std::fprintf(stderr, "FAIL: pack: %s\n", st.ToString().c_str());
    return 1;
  }
  const double pack_ms = MsSince(start);
  if (flexpath::Status st = mem.Build(); !st.ok()) {
    std::fprintf(stderr, "FAIL: build: %s\n", st.ToString().c_str());
    return 1;
  }
  flexpath::Result<flexpath::Tpq> packed_q =
      mem.Parse(flexpath::bench_util::kQ3);
  if (!packed_q.ok()) {
    std::fprintf(stderr, "FAIL: %s\n",
                 packed_q.status().ToString().c_str());
    return 1;
  }
  flexpath::TopKOptions packed_opts;
  packed_opts.k = kK;
  packed_opts.scheme = flexpath::RankScheme::kStructureFirst;
  packed_opts.num_threads = 1;
  flexpath::Result<TopKResult> mem_run =
      mem.QueryTpq(*packed_q, packed_opts, Algorithm::kDpo, "perf_smoke");
  if (!mem_run.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", mem_run.status().ToString().c_str());
    return 1;
  }

  flexpath::FlexPath packed;
  start = std::chrono::steady_clock::now();
  if (flexpath::Status st = packed.OpenPacked(packed_path); !st.ok()) {
    std::fprintf(stderr, "FAIL: open packed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double packed_open_ms = MsSince(start);

  flexpath::Counter* decode_bytes =
      flexpath::MetricsRegistry::Global().counter("storage.doc_decode_bytes");
  const uint64_t decode_bytes_before = decode_bytes->Value();
  start = std::chrono::steady_clock::now();
  flexpath::Result<TopKResult> packed_cold =
      packed.QueryTpq(*packed_q, packed_opts, Algorithm::kDpo, "perf_smoke");
  const double packed_cold_ms = MsSince(start);
  start = std::chrono::steady_clock::now();
  flexpath::Result<TopKResult> packed_warm =
      packed.QueryTpq(*packed_q, packed_opts, Algorithm::kDpo, "perf_smoke");
  const double packed_warm_ms = MsSince(start);
  if (!packed_cold.ok() || !packed_warm.ok()) {
    std::fprintf(stderr, "FAIL: packed query failed\n");
    return 1;
  }
  // Bytes-resident proxy: what the packed instance actually decoded —
  // both buffer pools plus materialized document bytes. The mmap itself
  // is shared/clean and reclaimable, so decoded bytes are the fair
  // "memory the engine is holding" number the baseline watches.
  const flexpath::storage::StorageReader::PoolStats elem_pool =
      packed.packed_reader()->GetElemPoolStats();
  const flexpath::storage::StorageReader::PoolStats post_pool =
      packed.packed_reader()->GetPostPoolStats();
  const uint64_t packed_resident_bytes =
      elem_pool.bytes + post_pool.bytes +
      (decode_bytes->Value() - decode_bytes_before);
  const uint64_t packed_file_bytes =
      packed.packed_reader()->header().file_bytes;

  int failures = 0;
  if (AnswerKey(*packed_cold) != AnswerKey(*mem_run) ||
      AnswerKey(*packed_warm) != AnswerKey(*mem_run)) {
    std::fprintf(stderr,
                 "FAIL: packed answers differ from the in-memory build\n"
                 "  memory: %s\n  cold  : %s\n  warm  : %s\n",
                 AnswerKey(*mem_run).c_str(),
                 AnswerKey(*packed_cold).c_str(),
                 AnswerKey(*packed_warm).c_str());
    ++failures;
  }
  if (elem_pool.misses + post_pool.misses == 0) {
    std::fprintf(stderr,
                 "FAIL: packed cold run never touched the buffer pools — "
                 "the query path is not reading the packed file\n");
    ++failures;
  }
  std::remove(packed_path.c_str());

  if (warm.counters.cache_step_hits == 0) {
    std::fprintf(stderr,
                 "FAIL: warm run had zero cache hits (cold misses=%llu)\n",
                 static_cast<unsigned long long>(
                     cold.counters.cache_step_misses));
    ++failures;
  }
  if (warm.counters.candidates_probed >= reference.counters.candidates_probed) {
    std::fprintf(
        stderr,
        "FAIL: warm run probed %llu candidates, not fewer than the uncached "
        "run's %llu — the cache is not saving work\n",
        static_cast<unsigned long long>(warm.counters.candidates_probed),
        static_cast<unsigned long long>(
            reference.counters.candidates_probed));
    ++failures;
  }
  if (AnswerKey(cold) != AnswerKey(reference) ||
      AnswerKey(warm) != AnswerKey(reference)) {
    std::fprintf(stderr,
                 "FAIL: cached answers differ from the uncached run\n"
                 "  off : %s\n  cold: %s\n  warm: %s\n",
                 AnswerKey(reference).c_str(), AnswerKey(cold).c_str(),
                 AnswerKey(warm).c_str());
    ++failures;
  }
  // Q3 is the deep-relaxation query; if it stops relaxing the cache smoke
  // stops covering the cross-round reuse it exists to watch.
  if (reference.relaxations_used < 3) {
    std::fprintf(stderr,
                 "FAIL: Q3 used only %zu relaxations; the smoke needs a "
                 "deep DPO schedule\n",
                 reference.relaxations_used);
    ++failures;
  }

  const uint64_t warm_steps =
      warm.counters.cache_step_hits + warm.counters.cache_step_misses;
  const double hit_rate =
      warm_steps == 0
          ? 0.0
          : static_cast<double>(warm.counters.cache_step_hits) /
                static_cast<double>(warm_steps);

  std::string json = "{\"bench\":\"perf_smoke/Q3_DPO_shared\"";
  json += ",\"corpus_bytes\":" + std::to_string(fixture.target_bytes);
  json += ",\"k\":" + std::to_string(kK);
  json += ",\"warm_hit_rate\":" + std::to_string(hit_rate);
  json += ",\"cold_over_warm_speedup\":" +
          std::to_string(warm_ms > 0.0 ? cold_ms / warm_ms : 0.0);
  json += ",";
  AppendRunJson(&json, "cold", cold, cold_ms);
  json += ",";
  AppendRunJson(&json, "warm", warm, warm_ms);
  json += ",";
  AppendRunJson(&json, "reference", reference, reference_ms);
  json += ",\"packed_file_bytes\":" + std::to_string(packed_file_bytes);
  json += ",\"packed_pack_ms\":" + std::to_string(pack_ms);
  json += ",\"packed_open_ms\":" + std::to_string(packed_open_ms);
  json += ",\"packed_resident_bytes\":" +
          std::to_string(packed_resident_bytes);
  json += ",\"packed_pool_bytes\":" +
          std::to_string(elem_pool.bytes + post_pool.bytes);
  json += ",";
  AppendRunJson(&json, "packed_cold", *packed_cold, packed_cold_ms);
  json += ",";
  AppendRunJson(&json, "packed_warm", *packed_warm, packed_warm_ms);
  json += "}";

  if (FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "FAIL: cannot write %s\n", out_path);
    ++failures;
  }
  std::printf("%s\n", json.c_str());
  std::printf(
      "perf smoke: %s (warm hit rate %.2f, %llu steps served from cache)\n",
      failures == 0 ? "OK" : "FAILED", hit_rate,
      static_cast<unsigned long long>(warm.counters.cache_step_hits));
  return failures == 0 ? 0 : 1;
}
