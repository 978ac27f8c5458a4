#include "relax/operators.h"

namespace flexpath {

std::string RelaxOp::ToString() const {
  switch (kind) {
    case RelaxOpKind::kAxisGeneralization:
      return "gamma($" + std::to_string(var) + ")";
    case RelaxOpKind::kLeafDeletion:
      return "lambda($" + std::to_string(var) + ")";
    case RelaxOpKind::kSubtreePromotion:
      return "sigma($" + std::to_string(var) + ")";
    case RelaxOpKind::kContainsPromotion:
      return "kappa($" + std::to_string(var) + "," + expr_key + ")";
  }
  return "";
}

std::vector<RelaxOp> ApplicableOps(const Tpq& q) {
  std::vector<RelaxOp> out;
  for (VarId v : q.Vars()) {
    const VarId parent = q.Parent(v);
    if (parent == kInvalidVar) continue;  // root: no operator applies
    if (q.AxisOf(v) == Axis::kChild) {
      out.push_back(RelaxOp{RelaxOpKind::kAxisGeneralization, v, ""});
    }
    if (q.IsLeaf(v)) {
      out.push_back(RelaxOp{RelaxOpKind::kLeafDeletion, v, ""});
    }
    if (q.Parent(parent) != kInvalidVar) {
      out.push_back(RelaxOp{RelaxOpKind::kSubtreePromotion, v, ""});
    }
    for (const FtExpr& e : q.node(v).contains) {
      out.push_back(
          RelaxOp{RelaxOpKind::kContainsPromotion, v, e.ToString()});
    }
  }
  return out;
}

Result<Tpq> ApplyOp(const Tpq& q, const RelaxOp& op) {
  Tpq out = q;
  if (!out.HasVar(op.var)) return Status::NotFound("no such variable");
  switch (op.kind) {
    case RelaxOpKind::kAxisGeneralization: {
      if (out.Parent(op.var) == kInvalidVar) {
        return Status::InvalidArgument("gamma: variable has no parent edge");
      }
      if (out.AxisOf(op.var) != Axis::kChild) {
        return Status::InvalidArgument("gamma: edge is already ad");
      }
      out.SetAxis(op.var, Axis::kDescendant);
      return out;
    }
    case RelaxOpKind::kLeafDeletion: {
      FLEXPATH_RETURN_IF_ERROR(out.DeleteLeaf(op.var));
      return out;
    }
    case RelaxOpKind::kSubtreePromotion: {
      const VarId parent = out.Parent(op.var);
      if (parent == kInvalidVar) {
        return Status::InvalidArgument("sigma: cannot promote the root");
      }
      const VarId grandparent = out.Parent(parent);
      if (grandparent == kInvalidVar) {
        return Status::InvalidArgument("sigma: no grandparent");
      }
      FLEXPATH_RETURN_IF_ERROR(out.Reparent(op.var, grandparent));
      return out;
    }
    case RelaxOpKind::kContainsPromotion: {
      if (out.Parent(op.var) == kInvalidVar) {
        return Status::InvalidArgument(
            "kappa: cannot promote contains from the root");
      }
      // Move only the named expression; PromoteContains moves all, so do
      // it manually here.
      TpqNode& n = out.mutable_node(op.var);
      bool found = false;
      for (size_t i = 0; i < n.contains.size(); ++i) {
        if (n.contains[i].ToString() == op.expr_key) {
          FtExpr moved = std::move(n.contains[i]);
          n.contains.erase(n.contains.begin() + static_cast<long>(i));
          out.AddContains(out.Parent(op.var), std::move(moved));
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::NotFound("kappa: contains predicate not found");
      }
      return out;
    }
  }
  return Status::Internal("unknown operator");
}

}  // namespace flexpath
