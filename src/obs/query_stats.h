#ifndef FLEXPATH_OBS_QUERY_STATS_H_
#define FLEXPATH_OBS_QUERY_STATS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/trace.h"
#include "exec/exec_counters.h"
#include "query/tpq.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Canonical shape key of a TPQ, pg_stat_statements-style: tags are
/// rendered by *name* (so the key survives tag-id reassignment across
/// corpora), edges by axis (c/d), contains and attribute predicates by
/// their canonical text, and the answer node by a positional marker.
/// Child order and variable numbering are normalized away — two queries
/// built in different orders, or parsed from differently-spelled XPath,
/// share a key iff they are the same tree pattern.
std::string QueryShapeKey(const Tpq& q, const TagDict& dict);

/// 64-bit FNV-1a hash of QueryShapeKey — the fingerprint per-shape
/// statistics aggregate under.
uint64_t FingerprintTpq(const Tpq& q, const TagDict& dict);

/// Fingerprint rendered as 16 lowercase hex digits (JSON-safe; 64-bit
/// integers don't survive a double round-trip).
std::string FingerprintHex(uint64_t fingerprint);

/// One finished query execution, as reported by the top-K processor.
struct QueryExecution {
  uint64_t fingerprint = 0;
  std::string query;       ///< Human-readable pattern (Tpq::ToString).
  std::string algorithm;   ///< "DPO" / "SSO" / "Hybrid".
  std::string scheme;      ///< Ranking scheme name.
  size_t k = 0;
  double latency_ms = 0.0;
  size_t relaxations = 0;          ///< Relaxation rounds applied/encoded.
  uint64_t predicates_dropped = 0; ///< Predicates relaxed away.
  double penalty = 0.0;            ///< Cumulative structural penalty applied.
  size_t answers = 0;
  bool error = false;
  /// Thread-CPU ms across the coordinator and pool workers
  /// (TopKResult::cpu_ms).
  double cpu_ms = 0.0;
  ExecCounters counters;  ///< What the run did (TopKResult::counters).
  /// True when a soft budget (TopKOptions::max_cpu_ms / max_tuples)
  /// stopped the run early.
  bool budget_exhausted = false;
};

/// Aggregated statistics for one query shape (a Snapshot copy).
struct ShapeStatsSnapshot {
  uint64_t fingerprint = 0;
  std::string example_query;  ///< First-seen rendering of the shape.
  uint64_t executions = 0;
  uint64_t errors = 0;
  HistogramSnapshot latency_ms;
  uint64_t total_relaxations = 0;
  uint64_t total_predicates_dropped = 0;
  double total_penalty = 0.0;
  uint64_t total_answers = 0;
  double total_cpu_ms = 0.0;
  uint64_t total_tuples_created = 0;
  uint64_t budget_exhausted = 0;  ///< Executions that tripped a budget.

  double MeanCpuMs() const {
    return executions == 0 ? 0.0
                           : total_cpu_ms / static_cast<double>(executions);
  }
  double MeanTuplesCreated() const {
    return executions == 0
               ? 0.0
               : static_cast<double>(total_tuples_created) /
                     static_cast<double>(executions);
  }
  double MeanRelaxations() const {
    return executions == 0
               ? 0.0
               : static_cast<double>(total_relaxations) /
                     static_cast<double>(executions);
  }
  double MeanPredicatesDropped() const {
    return executions == 0
               ? 0.0
               : static_cast<double>(total_predicates_dropped) /
                     static_cast<double>(executions);
  }
  double MeanPenalty() const {
    return executions == 0 ? 0.0
                           : total_penalty / static_cast<double>(executions);
  }
  double MeanAnswers() const {
    return executions == 0 ? 0.0
                           : static_cast<double>(total_answers) /
                                 static_cast<double>(executions);
  }
};

/// One slow-query log entry: the execution, the threshold it crossed, and
/// (when the run collected one) its trace.
struct SlowQueryEntry {
  QueryExecution execution;
  double threshold_ms = 0.0;
  std::shared_ptr<const QueryTrace> trace;  ///< May be null.
};

struct QueryStatsOptions {
  size_t max_shapes = 256;       ///< LRU-evicted beyond this.
  size_t ring_capacity = 128;    ///< Recent-executions ring buffer.
  size_t slowlog_capacity = 64;  ///< Slow-query log ring buffer.
};

/// How many entries each bounded structure has dropped since construction
/// (or the last Reset). Monotone; also mirrored as query_stats.*
/// eviction counters in the global metrics registry.
struct QueryStatsEvictions {
  uint64_t shapes = 0;   ///< LRU shape evictions past max_shapes.
  uint64_t ring = 0;     ///< Recent-ring entries displaced.
  uint64_t slowlog = 0;  ///< Slow-log entries displaced.
};

/// Cumulative, fingerprint-keyed query statistics: per-shape execution
/// counts and latency histograms, a bounded ring buffer of recent
/// executions, and a slow-query log. All methods are thread-safe; the
/// store is deliberately off the per-tuple hot path (one Record() call
/// per query).
class QueryStatsStore {
 public:
  explicit QueryStatsStore(QueryStatsOptions opts = {});

  QueryStatsStore(const QueryStatsStore&) = delete;
  QueryStatsStore& operator=(const QueryStatsStore&) = delete;

  /// Folds one execution into its shape's aggregate and the recent ring.
  void Record(const QueryExecution& e);

  /// Appends to the slow-query log (callers decide the threshold test so
  /// they can attach the trace only when one exists).
  void RecordSlow(const QueryExecution& e, double threshold_ms,
                  std::shared_ptr<const QueryTrace> trace);

  /// Replaces the capacity options at runtime, trimming each structure
  /// (oldest-first; least-recently-touched shapes first) if the new
  /// capacities are smaller. Trims count as evictions.
  void SetOptions(const QueryStatsOptions& opts);
  QueryStatsOptions options() const;

  /// Cumulative eviction counts (shapes / recent ring / slow log).
  QueryStatsEvictions Evictions() const;

  /// Per-shape aggregates, most-executed first.
  std::vector<ShapeStatsSnapshot> Shapes() const;

  /// Recent executions, oldest first; at most ring_capacity entries.
  std::vector<QueryExecution> Recent() const;

  /// The newest `limit` recent executions, oldest first. The admin
  /// endpoint's /statsz?recent=N path — callers cap N so a scrape can't
  /// ask for an unbounded render.
  std::vector<QueryExecution> Recent(size_t limit) const;

  /// Slow-query entries, oldest first; at most slowlog_capacity entries.
  std::vector<SlowQueryEntry> SlowLog() const;

  size_t shape_count() const;
  void Reset();

  /// One JSON object:
  ///   {"shapes":[{"fingerprint":"...","query":...,"executions":...,
  ///               "errors":...,"latency_ms":{count,sum,mean,p50,p99,min,
  ///               max},"relaxations_mean":...,"predicates_dropped_mean":
  ///               ...,"penalty_mean":...,"answers_mean":...}],
  ///    "recent":[...], "slow_log":[...]}
  std::string ToJson() const;

  /// Same, but the "recent" and "slow_log" arrays keep only the newest
  /// `recent_limit` entries each (still rendered oldest first).
  std::string ToJson(size_t recent_limit) const;

 private:
  struct ShapeStats {
    std::string example_query;
    uint64_t executions = 0;
    uint64_t errors = 0;
    Histogram latency_ms{Histogram::DefaultLatencyBoundsMs()};
    uint64_t total_relaxations = 0;
    uint64_t total_predicates_dropped = 0;
    double total_penalty = 0.0;
    uint64_t total_answers = 0;
    double total_cpu_ms = 0.0;
    uint64_t total_tuples_created = 0;
    uint64_t budget_exhausted = 0;
    uint64_t last_touched = 0;  ///< Record() sequence, for LRU eviction.
  };

  void EvictShapesLocked() REQUIRES(mu_);
  void TrimRingsLocked() REQUIRES(mu_);

  mutable Mutex mu_;
  QueryStatsOptions opts_ GUARDED_BY(mu_);
  std::unordered_map<uint64_t, ShapeStats> shapes_ GUARDED_BY(mu_);
  std::deque<QueryExecution> ring_ GUARDED_BY(mu_);
  std::deque<SlowQueryEntry> slowlog_ GUARDED_BY(mu_);
  uint64_t seq_ GUARDED_BY(mu_) = 0;
  QueryStatsEvictions evictions_ GUARDED_BY(mu_);
};

}  // namespace flexpath

#endif  // FLEXPATH_OBS_QUERY_STATS_H_
