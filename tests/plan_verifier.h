#ifndef FLEXPATH_TESTS_PLAN_VERIFIER_H_
#define FLEXPATH_TESTS_PLAN_VERIFIER_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "query/tpq.h"
#include "relax/schedule.h"

namespace flexpath {

// Verifier reason codes. Stable identifiers, mirroring the FXnnn
// diagnostic codes of the analyzer pass.
inline constexpr std::string_view kVerdictEmptyDrop = "V001";
inline constexpr std::string_view kVerdictDropNotInClosure = "V002";
inline constexpr std::string_view kVerdictNotStrict = "V003";
inline constexpr std::string_view kVerdictCoreNotTree = "V004";
inline constexpr std::string_view kVerdictClosureMismatch = "V005";
inline constexpr std::string_view kVerdictNoOperatorPath = "V006";

/// Outcome of statically checking one relaxation against Theorem 2.
struct PlanVerdict {
  bool ok = true;
  std::string code;    ///< V001..V006 when !ok, empty otherwise.
  std::string detail;  ///< Human-readable explanation of the failure.

  /// When the verifier ran with corpus statistics: a proof that the
  /// relaxed query has no answers on the indexed corpus (so the round
  /// can be skipped), or nullopt when emptiness cannot be proven.
  /// Orthogonal to `ok` — a valid relaxation can still be provably
  /// empty.
  std::optional<std::string> provably_empty;

  /// The γ/λ/σ/κ sequence found by the reachability check (empty when
  /// the check failed or was not reached).
  std::vector<RelaxOp> op_path;

  std::string ToString() const;
};

/// Statically verifies one schedule entry against the original query,
/// checking the Theorem 2 contract end to end:
///  - V001: the drop set is empty — the "relaxation" is a no-op;
///  - V002: a dropped predicate is not in the original closure;
///  - V003: the remainder (closure − dropped) is equivalent to the
///    original — containment is not strict, so the entry buys nothing;
///  - V004: the core of the remainder is not a well-formed tree pattern
///    (Theorem 1's minimal form fails to reconstruct);
///  - V005: the entry's relaxed tree is inconsistent with its drop-set
///    bookkeeping — Closure(relaxed) ≠ original closure − dropped, or
///    the distinguished variable moved;
///  - V006: no finite γ/λ/σ/κ composition rewrites the original into
///    the relaxed query (Theorem 2 completeness says one must exist for
///    every valid relaxation; the search is exact up to `budget`
///    expanded states, and a budget exhaustion is reported in `detail`).
/// When `ctx` carries corpus statistics the verdict also carries the
/// static-selectivity result (`provably_empty`).
PlanVerdict VerifyRelaxation(const Tpq& original, const ScheduleEntry& entry,
                             const AnalyzerContext& ctx,
                             size_t budget = 50000);

/// Verifies every entry of a schedule (as produced by BuildSchedule)
/// against the original query; verdict i corresponds to schedule[i].
std::vector<PlanVerdict> VerifySchedule(
    const Tpq& original, const std::vector<ScheduleEntry>& schedule,
    const AnalyzerContext& ctx, size_t budget = 50000);

}  // namespace flexpath

#endif  // FLEXPATH_TESTS_PLAN_VERIFIER_H_
