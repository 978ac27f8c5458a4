#ifndef FLEXBENCH_WORKLOAD_H_
#define FLEXBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/topk.h"
#include "rank/score.h"

namespace flexbench {

/// What a workload's ops are: the paper's Q1-Q3 templates, ad-hoc tree
/// patterns with contains predicates, or both in equal shares.
enum class Mix { kTemplates, kAdHoc, kBoth };

/// One named workload: the documents it loads, how it opens them, and the
/// traffic mix it sends. Every field is fixed in the workload; only the
/// seed varies between runs.
struct WorkloadSpec {
  const char* name;
  uint64_t doc_bytes;  ///< Target size of each generated XMark document.
  int docs;            ///< Documents in the collection.
  bool packed;         ///< Each op opens a fresh session on a packed file.
  size_t threads;      ///< TopKOptions::num_threads for every op.
  size_t k_min;        ///< k is drawn log-uniformly from [k_min, k_max].
  size_t k_max;
  Mix mix;
  /// Ops per second of --seconds that the traced run executes. Fixing the
  /// traced op count (instead of a deadline) makes its counts exact.
  double trace_ops_per_second;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One query of the op stream.
struct Op {
  std::string xpath;
  std::string shape;  ///< xpath with every keyword replaced by '?'.
  flexpath::Algorithm algo = flexpath::Algorithm::kHybrid;
  flexpath::RankScheme scheme = flexpath::RankScheme::kStructureFirst;
  size_t k = 10;

  /// Stable text of everything that defines the op (for repeat counting
  /// and the op-stream dump).
  std::string Key() const;
};

/// SplitMix64: small, seedable and independent of the engine's RNG, so an
/// engine change can never change the benchmark's inputs.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  double Uniform();        ///< [0, 1)
  size_t Below(size_t n);  ///< [0, n)

 private:
  uint64_t state_;
};

/// The seeded, non-repeating op stream of a workload. Streams with
/// different `stream_id` (timed ops, warm-up ops) are independent.
///
/// The stream is stratified so that a few hundred ops already carry the
/// workload's mix: op kinds and op classes (template x algorithm, or
/// algorithm x scheme) come from shuffled bags holding each exactly once,
/// and each class walks its k range along a golden-ratio sequence with a
/// seeded start. Run-to-run differences then come from the host and the
/// documents, not from which classes a short run happened to draw.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, uint64_t stream_id);
  Op Next();

 private:
  /// Draws from a bag of `n` values, refilled and reshuffled when empty.
  size_t FromBag(std::vector<size_t>* bag, size_t n);
  /// The next k of op class `cls`.
  size_t NextK(size_t cls);
  Op Template();
  Op Fulltext();

  const WorkloadSpec& spec_;
  SplitMix rng_;
  std::vector<size_t> kind_bag_;
  std::vector<size_t> template_bag_;
  std::vector<size_t> fulltext_bag_;
  std::vector<double> k_phase_;  ///< Per class: 9 template, 9 fulltext.
};

/// XMark seed of document `index` of a workload run with `seed`. Equal
/// (seed, index) pairs share documents across workloads.
uint64_t DocumentSeed(uint64_t seed, int index);

/// The XML text of every document of `spec` for `seed`, scaled by `scale`.
/// Generated documents are cached as files in `cache_dir`, keyed by
/// (document seed, size); generation is input preparation and is never
/// part of any timed region.
std::vector<std::string> LoadDocuments(const WorkloadSpec& spec,
                                       uint64_t seed, double scale,
                                       const std::string& cache_dir);

}  // namespace flexbench

#endif  // FLEXBENCH_WORKLOAD_H_
