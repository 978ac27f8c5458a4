// flexpath_replay: re-executes a captured workload log against a corpus.
//
//   flexpath_replay --log queries.jsonl --xmark 5
//   flexpath_replay --log queries.jsonl corpus1.xml corpus2.xml
//   flexpath_replay --log queries.jsonl --xmark 5 --check --out report.json
//
// Each record of the JSON-lines log (written by flexpath_cli --query-log,
// or any FlexPath instance with SetQueryLog) is re-run with the options
// it was captured with — algorithm, K, ranking scheme, thread count —
// and its answers are digested and compared against the captured
// AnswersDigest. Against the same corpus (e.g. the deterministic --xmark
// generator with its fixed seed) every digest must match: the engine's
// answers are byte-identical across runs and thread counts, so a
// mismatch means the corpus differs or a change broke answer
// reproducibility.
//
// The report (text on stdout; JSON with --out) gives per-workload counts
// and latency percentiles: captured p50/p99 vs replayed p50/p99.
//
// Flags:
//   --log FILE    the captured workload (required)
//   --xmark MB    generate an XMark corpus (same fixed seed as the CLI)
//   --check       exit 1 when any record fails to parse, errors, or
//                 digests differently
//   --out FILE    write the report as one JSON object to FILE
//   --threads N   override the captured thread counts (answers must not
//                 change; useful for timing comparisons)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/json_util.h"
#include "common/string_util.h"
#include "core/flexpath.h"
#include "xmark/generator.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --log FILE (--xmark MB | file.xml ...) "
               "[--check] [--out FILE] [--threads N]\n",
               argv0);
}

const char* FlagValue(int argc, char** argv, int* i, const char* flag) {
  const size_t len = std::strlen(flag);
  const char* arg = argv[*i];
  if (std::strncmp(arg, flag, len) != 0) return nullptr;
  if (arg[len] == '=') return arg + len + 1;
  if (arg[len] == '\0' && *i + 1 < argc) return argv[++*i];
  return nullptr;
}

bool ParseAlgorithm(const std::string& name, flexpath::Algorithm* out) {
  if (name == "DPO") {
    *out = flexpath::Algorithm::kDpo;
  } else if (name == "SSO") {
    *out = flexpath::Algorithm::kSso;
  } else if (name == "Hybrid") {
    *out = flexpath::Algorithm::kHybrid;
  } else {
    return false;
  }
  return true;
}

bool ParseScheme(const std::string& name, flexpath::RankScheme* out) {
  if (name == "structure-first") {
    *out = flexpath::RankScheme::kStructureFirst;
  } else if (name == "keyword-first") {
    *out = flexpath::RankScheme::kKeywordFirst;
  } else if (name == "combined") {
    *out = flexpath::RankScheme::kCombined;
  } else {
    return false;
  }
  return true;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

struct ReplayReport {
  size_t records = 0;
  size_t truncated = 0;      ///< Partial trailing lines dropped on read.
  size_t replayed = 0;       ///< Ran to completion.
  size_t parse_failures = 0; ///< Query text did not re-parse.
  size_t errors = 0;         ///< Execution returned a non-OK status.
  size_t digest_matches = 0;
  size_t digest_mismatches = 0;
  std::vector<double> captured_ms;
  std::vector<double> replayed_ms;

  bool Clean() const {
    return parse_failures == 0 && errors == 0 && digest_mismatches == 0;
  }

  std::string ToJson() const {
    std::string out = "{\"records\":" + std::to_string(records);
    out += ",\"truncated_lines\":" + std::to_string(truncated);
    out += ",\"replayed\":" + std::to_string(replayed);
    out += ",\"parse_failures\":" + std::to_string(parse_failures);
    out += ",\"errors\":" + std::to_string(errors);
    out += ",\"digest_matches\":" + std::to_string(digest_matches);
    out += ",\"digest_mismatches\":" + std::to_string(digest_mismatches);
    out += ",\"captured_ms\":{\"p50\":" +
           flexpath::FormatDouble(Percentile(captured_ms, 0.5));
    out += ",\"p99\":" + flexpath::FormatDouble(Percentile(captured_ms, 0.99));
    out += "},\"replayed_ms\":{\"p50\":" +
           flexpath::FormatDouble(Percentile(replayed_ms, 0.5));
    out += ",\"p99\":" + flexpath::FormatDouble(Percentile(replayed_ms, 0.99));
    out += "}}";
    return out;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string log_path;
  std::string out_path;
  bool check = false;
  bool override_threads = false;
  uint64_t threads_override = 0;
  flexpath::FlexPath fp;
  bool loaded = false;
  for (int i = 1; i < argc; ++i) {
    if (const char* v = FlagValue(argc, argv, &i, "--log")) {
      log_path = v;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--out")) {
      out_path = v;
      continue;
    }
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--threads")) {
      if (!flexpath::ParseUint64(v, 0, UINT64_MAX, &threads_override)) {
        std::fprintf(stderr, "--threads: expected a non-negative integer, "
                             "got %s\n", v);
        PrintUsage(argv[0]);
        return 2;
      }
      override_threads = true;
      continue;
    }
    if (const char* v = FlagValue(argc, argv, &i, "--xmark")) {
      double mb = 0.0;
      if (!flexpath::ParseNonNegative(v, &mb)) {
        std::fprintf(stderr, "--xmark: expected a non-negative number of "
                             "MB, got %s\n", v);
        PrintUsage(argv[0]);
        return 2;
      }
      flexpath::XMarkOptions opts;
      opts.target_bytes = static_cast<uint64_t>(mb * 1024 * 1024);
      // Same fixed seed as flexpath_cli --xmark: both sides of a
      // capture/replay pair regenerate the identical corpus.
      opts.seed = 42;
      flexpath::Result<flexpath::Document> doc =
          flexpath::GenerateXMark(opts, fp.tags());
      if (!doc.ok()) {
        std::fprintf(stderr, "%s\n", doc.status().ToString().c_str());
        return 1;
      }
      if (flexpath::Result<flexpath::DocId> id =
              fp.AddDocument(std::move(doc).value());
          !id.ok()) {
        std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
        return 1;
      }
      loaded = true;
      continue;
    }
    flexpath::Result<flexpath::DocId> id = fp.AddDocumentFile(argv[i]);
    if (!id.ok()) {
      std::fprintf(stderr, "%s: %s\n", argv[i],
                   id.status().ToString().c_str());
      return 1;
    }
    loaded = true;
  }
  if (log_path.empty() || !loaded) {
    PrintUsage(argv[0]);
    std::fprintf(stderr,
                 "re-executes a captured query log and verifies the\n"
                 "answers still digest identically\n");
    return 2;
  }

  size_t truncated = 0;
  flexpath::Result<std::vector<flexpath::QueryExecution>> records =
      flexpath::ReadQueryLog(log_path, &truncated);
  if (!records.ok()) {
    std::fprintf(stderr, "%s\n", records.status().ToString().c_str());
    return 1;
  }
  if (flexpath::Status st = fp.Build(); !st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }

  ReplayReport report;
  report.records = records->size();
  report.truncated = truncated;
  for (const flexpath::QueryExecution& r : *records) {
    flexpath::Result<flexpath::Tpq> q = fp.Parse(r.query);
    if (!q.ok()) {
      ++report.parse_failures;
      std::fprintf(stderr, "parse failure: %s: %s\n", r.query.c_str(),
                   q.status().ToString().c_str());
      continue;
    }
    flexpath::TopKOptions opts;
    opts.k = r.k;
    opts.num_threads = override_threads
                           ? static_cast<size_t>(threads_override)
                           : r.threads;
    flexpath::Algorithm algo = flexpath::Algorithm::kHybrid;
    // Unknown names (a log from a newer build) fall back to defaults
    // rather than failing: the digest check still validates the answers.
    ParseAlgorithm(r.algorithm, &algo);
    ParseScheme(r.scheme, &opts.scheme);
    const auto start = std::chrono::steady_clock::now();
    flexpath::Result<flexpath::TopKResult> result =
        fp.QueryTpq(*q, opts, algo, r.query);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (!result.ok()) {
      ++report.errors;
      std::fprintf(stderr, "error: %s: %s\n", r.query.c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    ++report.replayed;
    report.captured_ms.push_back(r.latency_ms);
    report.replayed_ms.push_back(elapsed_ms);
    const uint64_t digest = flexpath::AnswersDigest(result->answers);
    if (digest == r.answers_digest) {
      ++report.digest_matches;
    } else {
      ++report.digest_mismatches;
      std::fprintf(stderr,
                   "digest mismatch: %s (captured %016llx, replayed "
                   "%016llx, %zu answers)\n",
                   r.query.c_str(),
                   static_cast<unsigned long long>(r.answers_digest),
                   static_cast<unsigned long long>(digest),
                   result->answers.size());
    }
  }

  std::printf("replayed %zu/%zu records (%zu parse failures, %zu errors, "
              "%zu truncated lines)\n",
              report.replayed, report.records, report.parse_failures,
              report.errors, report.truncated);
  std::printf("digests: %zu match, %zu mismatch\n", report.digest_matches,
              report.digest_mismatches);
  std::printf("latency captured: p50 %.3fms p99 %.3fms\n",
              Percentile(report.captured_ms, 0.5),
              Percentile(report.captured_ms, 0.99));
  std::printf("latency replayed: p50 %.3fms p99 %.3fms\n",
              Percentile(report.replayed_ms, 0.5),
              Percentile(report.replayed_ms, 0.99));
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << report.ToJson() << '\n';
    std::fprintf(stderr, "report written to %s\n", out_path.c_str());
  }
  return check && !report.Clean() ? 1 : 0;
}
