#include "relax/penalty.h"

#include <algorithm>

namespace flexpath {

PenaltyModel::PenaltyModel(const Tpq& query, const DocumentStats* stats,
                           IrEngine* ir, Weights weights)
    : weights_(std::move(weights)) {
  const LogicalQuery closure = TreeClosure(query);
  auto tag_of = [&](VarId v) {
    return query.HasVar(v) ? query.node(v).tag : kInvalidTag;
  };

  for (const Predicate& p : closure.preds) {
    const double w = weights_.Of(p);
    double ratio = 1.0;
    switch (p.kind) {
      case PredKind::kPc: {
        const TagId ti = tag_of(p.x);
        const TagId tj = tag_of(p.y);
        const double ad = static_cast<double>(stats->AdCount(ti, tj));
        const double pc = static_cast<double>(stats->PcCount(ti, tj));
        ratio = ad > 0 ? pc / ad : 1.0;
        break;
      }
      case PredKind::kAd: {
        const TagId ti = tag_of(p.x);
        const TagId tj = tag_of(p.y);
        const double denom = static_cast<double>(stats->TagCount(ti)) *
                             static_cast<double>(stats->TagCount(tj));
        ratio = denom > 0
                    ? static_cast<double>(stats->AdCount(ti, tj)) / denom
                    : 1.0;
        break;
      }
      case PredKind::kContains: {
        // Penalty of promoting contains from $i to its query parent $l.
        if (ir == nullptr || !query.HasVar(p.x) ||
            query.Parent(p.x) == kInvalidVar) {
          ratio = 1.0;
          break;
        }
        auto expr_it = closure.exprs.find(p.expr_key);
        if (expr_it == closure.exprs.end()) {
          ratio = 1.0;
          break;
        }
        const std::shared_ptr<const ContainsResult> result =
            ir->Evaluate(expr_it->second);
        const TagId ti = tag_of(p.x);
        const TagId tl = tag_of(query.Parent(p.x));
        const double child_count =
            static_cast<double>(result->CountWithTag(ti));
        const double parent_count =
            static_cast<double>(result->CountWithTag(tl));
        ratio = parent_count > 0 ? child_count / parent_count : 1.0;
        break;
      }
      case PredKind::kTag:
        // Tag predicates are value-based and never relaxed; they carry
        // no weight in scores (Section 4.1).
        penalties_[p] = 0.0;
        continue;
    }
    penalties_[p] = std::clamp(ratio, 0.0, 1.0) * w;
  }
}

double PenaltyModel::Of(const Predicate& p) const {
  if (p.kind == PredKind::kTag) return 0.0;
  auto it = penalties_.find(p);
  if (it != penalties_.end()) return it->second;
  return weights_.Of(p);
}

double PenaltyModel::Sum(const std::set<Predicate>& preds) const {
  double total = 0.0;
  for (const Predicate& p : preds) total += Of(p);
  return total;
}

}  // namespace flexpath
