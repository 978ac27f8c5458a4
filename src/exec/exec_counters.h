#ifndef FLEXPATH_EXEC_EXEC_COUNTERS_H_
#define FLEXPATH_EXEC_EXEC_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace flexpath {

/// Work counters exposed by the evaluator so benchmarks can report what
/// each algorithm actually did (passes over data, probes, sorting — the
/// quantities Section 6 attributes the DPO/SSO/Hybrid differences to).
/// Kept in its own header so the observability layer can carry a run's
/// counters without depending on the evaluator; Add() lives in
/// evaluator.cc.
struct ExecCounters {
  uint64_t plan_passes = 0;        ///< Full plan evaluations.
  uint64_t candidates_probed = 0;  ///< Scan-list entries examined.
  uint64_t tuples_created = 0;     ///< Intermediate tuples materialized.
  uint64_t tuples_pruned = 0;      ///< Tuples discarded by the threshold.
  uint64_t score_sorts = 0;        ///< Score-order sorts (SSO's weakness).
  uint64_t score_sorted_items = 0; ///< Total items passed through them.
  uint64_t buckets_peak = 0;       ///< Max live buckets (Hybrid).
  uint64_t rounds_pruned_static = 0;  ///< Rounds skipped by static analysis.

  /// How a field folds when counters from parallel chunks or rounds are
  /// combined: totals sum, high-water marks max.
  enum class Agg : uint8_t { kSum, kMax };

  /// Must equal the number of fields above; the static_assert below
  /// pins sizeof to it, so adding a field without updating this (and
  /// VisitFields) fails the build instead of drifting silently.
  static constexpr size_t kFieldCount = 8;

  /// Reflection visitor: calls fn(name, field, agg) for every counter
  /// field of `self`, in declaration order — the single source of truth
  /// for the field list. Add(), ForEach() export (trace annotations,
  /// bench JSON lines, metrics) and the accounting-lint test all iterate
  /// through it, so a field listed here aggregates and exports
  /// automatically, everywhere.
  template <typename Self, typename Fn>
  static void VisitFields(Self& self, Fn&& fn) {
    fn("plan_passes", self.plan_passes, Agg::kSum);
    fn("candidates_probed", self.candidates_probed, Agg::kSum);
    fn("tuples_created", self.tuples_created, Agg::kSum);
    fn("tuples_pruned", self.tuples_pruned, Agg::kSum);
    fn("score_sorts", self.score_sorts, Agg::kSum);
    fn("score_sorted_items", self.score_sorted_items, Agg::kSum);
    fn("buckets_peak", self.buckets_peak, Agg::kMax);
    fn("rounds_pruned_static", self.rounds_pruned_static, Agg::kSum);
  }

  /// Accumulates `other` into this through VisitFields: sums every
  /// kSum field, maxes every kMax field (buckets_peak). Every combine
  /// path — parallel chunk merge, round totals — goes through here, so
  /// a field cannot be aggregated in one path and dropped in another.
  void Add(const ExecCounters& other);

  /// Calls fn(name, value) for every field, in declaration order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    VisitFields(*this, [&fn](const char* name, const uint64_t& value,
                             Agg /*agg*/) { fn(name, value); });
  }
};

// The accounting lint (see VisitFields): a new uint64_t field changes
// sizeof, failing this until kFieldCount — and, per the runtime check in
// Add(), the visitor — covers it.
static_assert(sizeof(ExecCounters) ==
                  ExecCounters::kFieldCount * sizeof(uint64_t),
              "ExecCounters field added/removed: update kFieldCount and "
              "VisitFields so aggregation and export stay complete");

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_EXEC_COUNTERS_H_
