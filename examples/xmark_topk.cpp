// XMark top-K: generates an auction document with the bundled XMark-style
// generator, then runs the paper's Section 6 benchmark queries with all
// three top-K algorithms (DPO, SSO, Hybrid), reporting answers found,
// relaxations used and the evaluator work counters.
//
// Usage: xmark_topk [megabytes] [k]   (defaults: 5 MB, K = 100)
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/flexpath.h"
#include "xmark/generator.h"

namespace {

constexpr const char* kQueries[] = {
    "//item[./description/parlist]",
    "//item[./description/parlist and ./mailbox/mail/text]",
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
    "and ./keyword and ./emph] and ./name and ./incategory]",
};

}  // namespace

int main(int argc, char** argv) {
  const double mb = argc > 1 ? std::atof(argv[1]) : 5.0;
  const size_t k = argc > 2 ? static_cast<size_t>(std::atoi(argv[2])) : 100;

  flexpath::FlexPath fp;
  flexpath::XMarkOptions gen_opts;
  gen_opts.target_bytes = static_cast<uint64_t>(mb * 1024 * 1024);
  gen_opts.seed = 42;
  flexpath::XMarkStatsSummary summary;
  flexpath::Result<flexpath::Document> doc =
      flexpath::GenerateXMark(gen_opts, fp.tags(), &summary);
  if (!doc.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 doc.status().ToString().c_str());
    return 1;
  }
  if (!fp.AddDocument(std::move(doc).value()).ok() || !fp.Build().ok()) {
    return 1;
  }
  std::printf(
      "generated ~%.1f MB: %u items, %u categories, %u people, %u "
      "auctions\n\n",
      static_cast<double>(summary.approx_bytes) / (1024 * 1024),
      summary.items, summary.categories, summary.people,
      summary.open_auctions);

  for (int qi = 0; qi < 3; ++qi) {
    std::printf("Q%d: %s\n", qi + 1, kQueries[qi]);
    flexpath::Result<flexpath::Tpq> q = fp.Parse(kQueries[qi]);
    if (!q.ok()) {
      std::fprintf(stderr, "  parse error: %s\n",
                   q.status().ToString().c_str());
      return 1;
    }
    std::printf("  %-8s %10s %8s %8s %12s %14s %12s\n", "algo", "time(ms)",
                "answers", "relax", "passes", "tuples", "score-sorts");
    for (flexpath::Algorithm algo :
         {flexpath::Algorithm::kDpo, flexpath::Algorithm::kSso,
          flexpath::Algorithm::kHybrid}) {
      flexpath::TopKOptions opts;
      opts.k = k;
      const auto t0 = std::chrono::steady_clock::now();
      flexpath::Result<flexpath::TopKResult> result =
          fp.QueryTpq(*q, opts, algo);
      const auto t1 = std::chrono::steady_clock::now();
      if (!result.ok()) {
        std::fprintf(stderr, "  %s failed: %s\n",
                     flexpath::AlgorithmName(algo),
                     result.status().ToString().c_str());
        return 1;
      }
      const double ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
      std::printf("  %-8s %10.2f %8zu %8zu %12llu %14llu %12llu\n",
                  flexpath::AlgorithmName(algo), ms,
                  result->answers.size(), result->relaxations_used,
                  static_cast<unsigned long long>(
                      result->counters.plan_passes),
                  static_cast<unsigned long long>(
                      result->counters.tuples_created),
                  static_cast<unsigned long long>(
                      result->counters.score_sorts));
    }
    std::printf("\n");
  }
  return 0;
}
