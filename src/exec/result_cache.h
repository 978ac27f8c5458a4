#ifndef FLEXPATH_EXEC_RESULT_CACHE_H_
#define FLEXPATH_EXEC_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_set>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "exec/tuple_rows.h"
#include "xml/corpus.h"

namespace flexpath {

/// The cached output of one plan step: the tuple block alive after the
/// step's extend + dominance prune — the exact state the evaluator's
/// pipeline carries between steps, so execution can resume from any
/// cached prefix as if the prefix had just been computed.
struct CachedStepResult {
  TupleRows rows;
  /// True when the rows were computed under answer exclusion at or past
  /// the distinguished step (incremental DPO): the set is missing tuples
  /// for already-answered nodes, so it is only reusable inside the same
  /// run (where the exclusion set has grown monotonically and a re-filter
  /// restores exactness) — never via the shared tier.
  bool tainted = false;
  size_t bytes = 0;  ///< Footprint, the LRU charge.

  /// The footprint of an entry holding `rows`: the entry itself plus the
  /// block's rows × stride bindings and its mask/penalty arrays.
  static size_t ApproxBytes(const TupleRows& rows);
};

/// Builds the full cache key of one step's output from everything the
/// tuple set depends on beyond the plan prefix itself: the corpus
/// generation (invalidation), the eval mode, the rank scheme and the
/// pruning k (both feed the threshold bound in encoded modes; kExact
/// passes prune_k = 0 since it never prunes). Keying on (scheme, k) is
/// exact only because cached tuples are pure functions of (ss, ks) — the
/// cache-exactness property (FX304) the scheme's SchemeCertificate must
/// prove; topk.cc leaves the cache off for any scheme whose certificate
/// refutes it (DESIGN.md §16).
uint64_t StepCacheKey(uint64_t step_fingerprint, uint64_t corpus_generation,
                      uint8_t mode, uint8_t scheme, uint64_t prune_k);

/// One tier of the sub-plan result cache (DESIGN.md §12): a thread-safe,
/// byte-budgeted LRU from step cache keys to immutable step results.
/// Entries are shared-const, so a reader keeps its result alive across a
/// concurrent eviction. Two instances play different roles:
///   - the *run tier*: one instance per TopK call, letting DPO round i+1
///     reuse round i's shared plan prefix (tainted entries allowed);
///   - the *shared tier*: the process-wide Global() instance, which
///     survives across queries (untainted entries only) and makes
///     repeated evaluation of a query warm-fast.
class ResultCache {
 public:
  /// Default byte budget of the shared (process-wide) tier.
  static constexpr size_t kDefaultSharedBudgetBytes = size_t{256} << 20;

  /// The process-wide shared tier. Its budget is adjustable via
  /// SetBudget (surfaced as FlexPath::SetSharedResultCacheBudget and the
  /// CLI --cache-mb flag).
  static ResultCache& Global();

  /// `export_metrics` mirrors hit/miss/insert/evict counts and
  /// bytes/entries gauges into the global MetricsRegistry under cache.*
  /// (the shared tier does; run tiers skip it — their activity is
  /// per-query and lands in ExecCounters instead).
  explicit ResultCache(size_t budget_bytes, bool export_metrics = false);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Returns the entry for `key` (marking it most-recently-used), or null.
  std::shared_ptr<const CachedStepResult> Get(uint64_t key);

  /// Inserts `entry`, charged at entry->bytes, evicting LRU entries to
  /// stay within budget. Oversized entries are dropped silently.
  void Put(uint64_t key, std::shared_ptr<const CachedStepResult> entry);

  void SetBudget(size_t budget_bytes);
  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t budget = 0;
  };
  Stats GetStats() const;

 private:
  void ExportMetrics() REQUIRES(mu_);

  mutable Mutex mu_;
  LruByteCache<uint64_t, CachedStepResult> lru_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
  uint64_t insertions_ GUARDED_BY(mu_) = 0;
  const bool export_metrics_;
};

/// Cache context for one PlanEvaluator::Evaluate call. Null pointers
/// disable the corresponding tier; a null context disables caching
/// entirely (the default — the cached and uncached paths produce
/// byte-identical answers, penalties and relaxation metadata, enforced
/// by tests/result_cache_test.cc).
struct EvalCacheContext {
  ResultCache* run = nullptr;     ///< Run-local tier (tainted entries OK).
  ResultCache* shared = nullptr;  ///< Process-wide tier (untainted only).
  uint64_t corpus_generation = 0;
  /// Incremental DPO (kExact only): answers already produced by earlier
  /// rounds. Tuples whose distinguished binding is in this set are
  /// dropped as soon as the distinguished variable binds — the round
  /// evaluates only its delta. Sound because the DPO merge deduplicates
  /// answers by first (= best-scored) round anyway, the distinguished
  /// step is always in every dominance live set (so exclusion removes
  /// whole dominance groups and never changes surviving ones), and the
  /// set only grows within a run.
  const std::unordered_set<NodeRef, NodeRefHash>* exclude = nullptr;
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_RESULT_CACHE_H_
