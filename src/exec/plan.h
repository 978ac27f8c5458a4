#ifndef FLEXPATH_EXEC_PLAN_H_
#define FLEXPATH_EXEC_PLAN_H_

#include <cstdint>
#include <set>
#include <vector>

#include "common/status.h"
#include "query/logical.h"
#include "query/tpq.h"
#include "rank/score.h"
#include "relax/penalty.h"

namespace flexpath {

/// One predicate evaluated at a plan step. Required predicates filter;
/// optional predicates (the encoded relaxations, Section 5.2.1/Figure 8:
/// "c(a,b) or if not c(a,b) then d(a,b)") are checked and, when violated,
/// contribute their penalty and set a bit in the tuple's violation mask.
struct PlanPredicate {
  Predicate pred;
  bool optional = false;
  double penalty = 0.0;  ///< π(pred); meaningful when optional.
  int mask_bit = -1;     ///< Violation-mask bit; optional predicates only.
};

/// One step of the left-deep plan: bind one query variable by probing the
/// tag's element list inside the anchor binding's interval.
struct PlanStep {
  VarId var = kInvalidVar;
  TagId tag = kInvalidTag;
  int anchor_step = -1;  ///< Earlier step whose binding bounds the probe;
                         ///  -1 for the first step (scan the whole list).
  bool anchor_parent_only = false;  ///< Required pc edge: filter by level.
  bool nullable = false;  ///< Every predicate involving var is optional,
                          ///  so the variable may stay unbound (leaf
                          ///  deletion encoded in the plan).
  std::vector<PlanPredicate> preds;   ///< Predicates decidable at this step.
  std::vector<AttrPred> attr_preds;   ///< Value predicates (always filter).
};

/// The dominance work a plan step needs so that its output block holds no
/// two tuples that agree on LiveSteps(s) (DESIGN.md §5, "Dominance
/// pruning"). Chosen once per step by JoinPlan::Build from the live sets.
///  - kNone: no binding died and the step's own binding is live, so no
///    two tuples can agree; nothing to do.
///  - kSiblings: no binding died but the step's binding is dead, so only
///    the tuples extending one parent collide; keep the lowest-penalty
///    candidate per parent (first-seen on ties).
///  - kGroups: a binding died, so tuples of different parents may
///    collide; group the whole block by its live bindings.
enum class Dominance : uint8_t { kNone, kSiblings, kGroups };

/// A left-deep join plan over the original query's variables with a set
/// of relaxations encoded as optional predicates (the SSO/Hybrid plan
/// form, Section 5.2). Build once per (query, encoded-drop-set); evaluate
/// with PlanEvaluator.
class JoinPlan {
 public:
  /// Builds the plan.
  ///   `original` — the user query (all variables; defines scoring).
  ///   `relaxed`  — the most relaxed query in the encoded chain; its
  ///                logical form gives the *required* predicates. Pass
  ///                `original` itself to encode no relaxation.
  ///   `dropped`  — cumulative dropped closure predicates (must equal
  ///                TreeClosure(original) − TreeClosure(relaxed)).
  /// Fails if more than 64 droppable predicates are encoded (mask width).
  static Result<JoinPlan> Build(const Tpq& original, const Tpq& relaxed,
                                const std::set<Predicate>& dropped,
                                const PenaltyModel& pm, const Weights& w);

  const Tpq& query() const { return original_; }
  const std::vector<PlanStep>& steps() const { return steps_; }
  int distinguished_step() const { return distinguished_step_; }

  /// Σ w over the original query's structural predicates.
  double base_score() const { return base_score_; }

  /// Σ π over the optional predicates whose bits are set in `mask`.
  double PenaltyOfMask(uint64_t mask) const;

  /// Σ π over optional predicates evaluated at steps > `step` (the
  /// maximum further score loss of a tuple alive after `step` — the
  /// complement of the paper's maxScoreGrowth threshold).
  double MaxRemainingPenalty(size_t step) const;

  /// Total keyword weight (Σ w over original contains predicates): the
  /// upper bound of any answer's keyword score, the `m` of the combined-
  /// scheme pruning bound in Section 5.1.
  double max_keyword_score() const { return max_keyword_score_; }

  size_t num_mask_bits() const { return bit_penalties_.size(); }

  /// Keyword-scoring info: for each contains predicate of the original
  /// query, the chain of plan steps from its variable up to the root.
  /// The effective score is taken at the deepest bound, satisfying step.
  struct ContainsChain {
    FtExpr expr = FtExpr::Term("");
    double weight = 1.0;
    std::vector<int> chain_steps;  ///< Step indexes, deepest first.
  };
  const std::vector<ContainsChain>& contains_chains() const {
    return contains_chains_;
  }

  /// Steps whose bindings still matter after step `s` completes: steps
  /// referenced by a predicate of a later step, by any keyword-scoring
  /// chain, or the distinguished step. Two tuples that agree on these
  /// bindings have identical futures, so only the lowest-penalty one
  /// needs to survive — this exact dominance rule is what keeps
  /// independent pattern branches from multiplying intermediate tuples.
  const std::vector<int>& LiveSteps(size_t s) const {
    return live_after_step_[s];
  }

  /// The dominance kernel step `s` needs (see Dominance).
  Dominance DominanceAt(size_t s) const { return dominance_[s]; }

 private:
  JoinPlan() = default;

  Tpq original_;
  std::vector<PlanStep> steps_;
  int distinguished_step_ = 0;
  double base_score_ = 0.0;
  double max_keyword_score_ = 0.0;
  std::vector<double> bit_penalties_;          ///< π per mask bit.
  std::vector<double> remaining_after_step_;   ///< See MaxRemainingPenalty.
  std::vector<ContainsChain> contains_chains_;
  std::vector<std::vector<int>> live_after_step_;  ///< See LiveSteps.
  std::vector<Dominance> dominance_;               ///< See DominanceAt.
};

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_PLAN_H_
