#include "exec/plan.h"

#include <algorithm>
#include <map>

namespace flexpath {

Result<JoinPlan> JoinPlan::Build(const Tpq& original, const Tpq& relaxed,
                                 const std::set<Predicate>& dropped,
                                 const PenaltyModel& pm, const Weights& w) {
  JoinPlan plan;
  plan.original_ = original;
  plan.base_score_ = BaseStructuralScore(original, w);

  // Step order: original variables, parents before children (Vars() is in
  // insertion order, which AddChild guarantees is top-down).
  const std::vector<VarId> vars = original.Vars();
  std::map<VarId, int> step_of;
  for (size_t i = 0; i < vars.size(); ++i) {
    step_of[vars[i]] = static_cast<int>(i);
  }
  plan.distinguished_step_ = step_of.at(original.distinguished());

  const LogicalQuery required = ToLogical(relaxed);

  // Assign mask bits to droppable (non-tag) dropped predicates.
  std::map<Predicate, int> bit_of;
  for (const Predicate& p : dropped) {
    if (p.kind == PredKind::kTag) continue;
    bit_of.emplace(p, static_cast<int>(plan.bit_penalties_.size()));
    plan.bit_penalties_.push_back(pm.Of(p));
  }
  if (plan.bit_penalties_.size() > 64) {
    return Status::InvalidArgument(
        "more than 64 relaxed predicates encoded in one plan");
  }

  plan.steps_.resize(vars.size());
  for (size_t i = 0; i < vars.size(); ++i) {
    PlanStep& step = plan.steps_[i];
    step.var = vars[i];
    step.tag = original.node(vars[i]).tag;
    if (step.tag == kInvalidTag) {
      return Status::Unimplemented(
          "wildcard (*) steps are not supported by the join-plan engine");
    }
    step.attr_preds = original.node(vars[i]).attr_preds;
    step.nullable = !relaxed.HasVar(vars[i]);

    // Anchor: the variable's parent in the relaxed query, or the plan
    // root when the variable was deleted from it.
    if (i == 0) {
      step.anchor_step = -1;
    } else if (!step.nullable) {
      const VarId rparent = relaxed.Parent(vars[i]);
      if (rparent == kInvalidVar || step_of.count(rparent) == 0) {
        return Status::Internal("relaxed query lost a parent edge");
      }
      step.anchor_step = step_of.at(rparent);
      if (step.anchor_step >= static_cast<int>(i)) {
        return Status::Internal("plan anchor is not bound yet");
      }
      step.anchor_parent_only = relaxed.AxisOf(vars[i]) == Axis::kChild;
    } else {
      step.anchor_step = 0;
      step.anchor_parent_only = false;
    }
  }

  // Required predicates (tree edges and contains of the relaxed query):
  // attach each to the step of its later-bound variable.
  for (const Predicate& p : required.preds) {
    if (p.kind == PredKind::kTag) continue;  // implicit in the scan list
    int at;
    if (p.kind == PredKind::kContains) {
      if (step_of.count(p.x) == 0) continue;
      at = step_of.at(p.x);
    } else {
      if (step_of.count(p.x) == 0 || step_of.count(p.y) == 0) {
        return Status::Internal("relaxed predicate over unknown variable");
      }
      at = std::max(step_of.at(p.x), step_of.at(p.y));
    }
    plan.steps_[static_cast<size_t>(at)].preds.push_back(
        PlanPredicate{p, /*optional=*/false, 0.0, -1});
  }

  // Optional (dropped) predicates, with penalties and mask bits.
  for (const Predicate& p : dropped) {
    if (p.kind == PredKind::kTag) continue;
    int at;
    if (p.kind == PredKind::kContains) {
      if (step_of.count(p.x) == 0) continue;
      at = step_of.at(p.x);
    } else {
      at = std::max(step_of.at(p.x), step_of.at(p.y));
    }
    plan.steps_[static_cast<size_t>(at)].preds.push_back(
        PlanPredicate{p, /*optional=*/true, pm.Of(p), bit_of.at(p)});
  }

  // Max remaining penalty per step (for threshold pruning).
  plan.remaining_after_step_.assign(vars.size() + 1, 0.0);
  for (size_t i = vars.size(); i-- > 0;) {
    double here = 0.0;
    for (const PlanPredicate& p : plan.steps_[i].preds) {
      if (p.optional) here += p.penalty;
    }
    plan.remaining_after_step_[i] = plan.remaining_after_step_[i + 1] + here;
  }

  // Keyword scoring chains: one per original contains predicate.
  for (VarId v : vars) {
    for (const FtExpr& e : original.node(v).contains) {
      ContainsChain chain;
      chain.expr = e;
      chain.weight = w.Of(Predicate::Contains(v, e));
      for (VarId cur = v; cur != kInvalidVar;
           cur = plan.original_.Parent(cur)) {
        chain.chain_steps.push_back(step_of.at(cur));
      }
      plan.max_keyword_score_ += chain.weight;
      plan.contains_chains_.push_back(std::move(chain));
    }
  }

  // Live-step sets for dominance pruning: after step s, a binding matters
  // iff some predicate of a later step references its variable, a keyword
  // chain references it, or it is the distinguished step.
  std::set<int> always_live;
  always_live.insert(plan.distinguished_step_);
  for (const ContainsChain& chain : plan.contains_chains_) {
    for (int cs : chain.chain_steps) always_live.insert(cs);
  }
  plan.live_after_step_.resize(vars.size());
  std::set<int> live = always_live;
  for (size_t s = vars.size(); s-- > 0;) {
    // Bindings needed strictly after step s: the accumulated set (from
    // later steps) — step s+1's own anchor and predicate references.
    if (s + 1 < vars.size()) {
      const PlanStep& next = plan.steps_[s + 1];
      live.insert(next.anchor_step);
      for (const PlanPredicate& pp : next.preds) {
        if (pp.pred.kind == PredKind::kPc ||
            pp.pred.kind == PredKind::kAd) {
          live.insert(step_of.at(pp.pred.x));
          live.insert(step_of.at(pp.pred.y));
        } else if (pp.pred.kind == PredKind::kContains) {
          live.insert(step_of.at(pp.pred.x));
        }
      }
    }
    for (int l : live) {
      if (l <= static_cast<int>(s)) {
        plan.live_after_step_[s].push_back(l);
      }
    }
  }

  // Dominance kernel per step. Live sets only grow going backwards, so
  // L(s) \ {s} is a subset of L(s-1), with L(-1) empty. When they are
  // equal no binding died at s: two output tuples that agree on L(s)
  // agree on L(s-1), which the previous block keeps distinct, so they
  // extend the same parent. If s itself is live they differ at s (a scan
  // list holds each node once, and the null binding is appended only
  // when no candidate matched), so none collide; otherwise all siblings
  // collide. Step 0's "parent" is the whole scan list, which the pool
  // splits across chunks, so it never takes the sibling kernel.
  plan.dominance_.resize(vars.size());
  for (size_t s = 0; s < vars.size(); ++s) {
    const std::vector<int>& here = plan.live_after_step_[s];  // Ascending.
    const bool self_live = !here.empty() && here.back() == static_cast<int>(s);
    const size_t before = s == 0 ? 0 : plan.live_after_step_[s - 1].size();
    const bool none_died = here.size() - (self_live ? 1 : 0) == before;
    if (none_died && self_live) {
      plan.dominance_[s] = Dominance::kNone;
    } else if (none_died && s > 0) {
      plan.dominance_[s] = Dominance::kSiblings;
    } else {
      plan.dominance_[s] = Dominance::kGroups;
    }
  }

  return plan;
}

double JoinPlan::PenaltyOfMask(uint64_t mask) const {
  double total = 0.0;
  while (mask != 0) {
    const int bit = __builtin_ctzll(mask);
    total += bit_penalties_[static_cast<size_t>(bit)];
    mask &= mask - 1;
  }
  return total;
}

double JoinPlan::MaxRemainingPenalty(size_t step) const {
  const size_t idx = std::min(step + 1, remaining_after_step_.size() - 1);
  return remaining_after_step_[idx];
}

}  // namespace flexpath
