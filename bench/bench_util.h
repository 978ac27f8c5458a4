#ifndef FLEXPATH_BENCH_BENCH_UTIL_H_
#define FLEXPATH_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "exec/topk.h"
#include "ir/engine.h"
#include "query/tpq.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "xml/corpus.h"

namespace flexpath {
namespace bench_util {

/// The paper's Section 6 benchmark queries over the XMark schema.
inline constexpr const char* kQ1 = "//item[./description/parlist]";
inline constexpr const char* kQ2 =
    "//item[./description/parlist and ./mailbox/mail/text]";
inline constexpr const char* kQ3 =
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
    "and ./keyword and ./emph] and ./name and ./incategory]";

/// One fully indexed XMark corpus. Fixtures are cached per byte size for
/// the lifetime of the bench binary, so each size is generated and
/// indexed once no matter how many benchmarks use it.
struct Fixture {
  Corpus corpus;
  uint64_t target_bytes = 0;  ///< The generated document's target size.
  std::unique_ptr<ElementIndex> index;
  std::unique_ptr<DocumentStats> stats;
  std::unique_ptr<IrEngine> ir;
  std::unique_ptr<TopKProcessor> processor;

  Tpq Parse(const char* xpath);
};

/// Returns the cached fixture for an XMark document of ~`bytes` bytes.
Fixture& GetFixture(uint64_t bytes);

/// Convenience: fixture for a document of `mb` megabytes.
Fixture& GetFixtureMb(double mb);

/// True when FLEXPATH_BENCH_FULL=1.
bool FullScale();

/// The paper's 1MB / 10MB documents are cheap and always run at true
/// scale. The docsize sweeps (Figures 11/12/14) and the 100MB experiment
/// (Figure 16) are compressed by default — set FLEXPATH_BENCH_FULL=1 for
/// the paper's exact sizes.
double SmallDocMb();   ///< 1MB in both modes.
double MediumDocMb();  ///< 10MB in both modes.
double LargeDocMb();   ///< 100MB full; 20MB default.

/// Document sizes for the docsize sweeps: {1,5,10,25,50,100}MB full;
/// {1,2,5,10,15,20}MB default. Always 6 entries.
double SweepSizeMb(int index);

/// Runs one top-K query and returns the result (asserts success).
/// `threads` maps to TopKOptions::num_threads; the default of 1 keeps
/// the paper-figure benchmarks on the serial path so their numbers stay
/// comparable across machines — thread-scaling benches opt in explicitly.
TopKResult RunTopK(Fixture& fixture, const Tpq& q, Algorithm algo, size_t k,
                   RankScheme scheme = RankScheme::kStructureFirst,
                   size_t threads = 1);

/// Prints one machine-parseable JSON line describing a benchmark run to
/// stderr (stdout belongs to google-benchmark's reporter):
///   {"bench":"fig10/DPO","algorithm":"DPO","k":600,"corpus_bytes":...,
///    "elapsed_ms":...,"relaxations_used":...,"answers":...,"threads":...,
///    "counters":{"plan_passes":...,...all ExecCounters fields...}}
/// When `metrics_json` is non-null, its content is appended verbatim as a
/// final "metrics" field (a MetricsToJson snapshot of the run).
void EmitJsonLine(const std::string& bench, const char* algorithm, size_t k,
                  uint64_t corpus_bytes, double elapsed_ms,
                  const ExecCounters& counters, size_t relaxations,
                  size_t answers, size_t threads = 1,
                  const std::string* metrics_json = nullptr);

/// Times one un-instrumented top-K run and emits its JSON line. Call once
/// per benchmark case, after the google-benchmark timing loop, so every
/// `BENCH_*` invocation leaves a mechanical record of what it measured.
/// The global MetricsRegistry is reset before the run, so per-run lines
/// never accumulate counters across configurations; set
/// FLEXPATH_BENCH_METRICS=1 to embed the run's metrics snapshot in the
/// line as a "metrics" field.
TopKResult EmitTopKRunJson(const std::string& bench, Fixture& fixture,
                           const Tpq& q, Algorithm algo, size_t k,
                           RankScheme scheme = RankScheme::kStructureFirst,
                           size_t threads = 1);

}  // namespace bench_util
}  // namespace flexpath

#endif  // FLEXPATH_BENCH_BENCH_UTIL_H_
