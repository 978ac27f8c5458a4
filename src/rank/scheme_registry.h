#ifndef FLEXPATH_RANK_SCHEME_REGISTRY_H_
#define FLEXPATH_RANK_SCHEME_REGISTRY_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "rank/score.h"

namespace flexpath {

/// When DPO may stop relaxing (Section 5.1), one rule per scheme:
///  - kAtK:           stop as soon as K answers are held.
///  - kPenaltyMargin: stop once the best achievable score of the next
///                    round (base - round penalty + stop_margin_factor x
///                    the maximum keyword mass) falls below the K-th
///                    answer.
///  - kExhaustive:    every relaxation runs.
enum class DpoStopRule : uint8_t {
  kAtK = 0,
  kPenaltyMargin = 1,
  kExhaustive = 2,
};

/// What a ranking scheme licenses the optimizations to do. Each row of
/// kSchemeTable follows from Theorem 3 (relaxing a query only lowers the
/// structural score) and the scheme's order; DESIGN.md §16 gives the
/// argument for each.
struct SchemeCertificate {
  bool threshold_pruning;     ///< Score-threshold pruning is sound.
  double prune_ks_factor;     ///< Optimistic ks bonus per unit of the
                              ///< plan's maximum keyword mass used in
                              ///< pruning bounds.
  DpoStopRule stop_rule;
  double stop_margin_factor;  ///< kPenaltyMargin: margin per unit of
                              ///< maximum keyword mass.
};

/// Indexed by RankScheme.
inline constexpr std::array<SchemeCertificate, 3> kSchemeTable = {{
    // structure-first: ss dominates, so a relaxation round only ever
    // yields worse answers.
    {true, 0.0, DpoStopRule::kAtK, 0.0},
    // keyword-first: any structural score can still reach the top K.
    {false, 0.0, DpoStopRule::kExhaustive, 0.0},
    // combined: a round can gain at most the total keyword mass.
    {true, 1.0, DpoStopRule::kPenaltyMargin, 1.0},
}};

/// The one lookup of kSchemeTable, shared by TopKProcessor, the plan
/// evaluator and the benchmark harness.
class SchemeRegistry {
 public:
  static const SchemeRegistry& Global() {
    static constexpr SchemeRegistry kRegistry;
    return kRegistry;
  }

  /// The row of `scheme`; nullptr for a value outside RankScheme.
  const SchemeCertificate* Certificate(RankScheme scheme) const {
    const auto idx = static_cast<size_t>(scheme);
    return idx < kSchemeTable.size() ? &kSchemeTable[idx] : nullptr;
  }
};

}  // namespace flexpath

#endif  // FLEXPATH_RANK_SCHEME_REGISTRY_H_
