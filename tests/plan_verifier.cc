#include "tests/plan_verifier.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "relax/operators.h"
#include "tests/logical_reference.h"

namespace flexpath {

namespace {

PlanVerdict Fail(std::string_view code, std::string detail) {
  PlanVerdict v;
  v.ok = false;
  v.code = std::string(code);
  v.detail = std::move(detail);
  return v;
}

std::set<VarId> VarsOf(const Tpq& q) {
  std::vector<VarId> vars = q.Vars();
  return std::set<VarId>(vars.begin(), vars.end());
}

/// Reconstructs a γ/λ/σ/κ sequence from `original` to `target` by
/// depth-first search over the operator algebra. Sound pruning:
/// operators only ever drop closure predicates and delete variables, so
/// any state whose closure no longer contains the target closure — or
/// that lost a variable the target still has, or moved the
/// distinguished variable away from the target's — is a dead end.
/// Closure shrinks by at least one predicate per step, which bounds the
/// path length; `budget` bounds the total states expanded.
/// Returns true and fills `path` on success; `*exhausted` is set when
/// the search ran out of budget (so failure is inconclusive).
bool FindOpPath(const Tpq& original, const Tpq& target, size_t budget,
                std::vector<RelaxOp>* path, bool* exhausted) {
  const std::string goal = target.CanonicalString();
  const LogicalQuery target_closure = Closure(ToLogical(target));
  const std::set<VarId> target_vars = VarsOf(target);
  const VarId target_dist = target.distinguished();

  struct Frame {
    Tpq query;
    std::vector<RelaxOp> ops;
  };
  std::vector<Frame> stack;
  stack.push_back({original, {}});
  std::set<std::string> seen;
  seen.insert(original.CanonicalString());
  size_t expanded = 0;
  *exhausted = false;

  while (!stack.empty()) {
    Frame frame = std::move(stack.back());
    stack.pop_back();
    if (frame.query.CanonicalString() == goal) {
      *path = std::move(frame.ops);
      return true;
    }
    if (++expanded > budget) {
      *exhausted = true;
      return false;
    }
    for (const RelaxOp& op : ApplicableOps(frame.query)) {
      Result<Tpq> next = ApplyOp(frame.query, op);
      if (!next.ok()) continue;
      if (next->distinguished() != target_dist) continue;
      const std::set<VarId> next_vars = VarsOf(*next);
      if (!std::includes(next_vars.begin(), next_vars.end(),
                         target_vars.begin(), target_vars.end())) {
        continue;
      }
      const LogicalQuery next_closure = Closure(ToLogical(*next));
      if (!std::includes(next_closure.preds.begin(),
                         next_closure.preds.end(),
                         target_closure.preds.begin(),
                         target_closure.preds.end())) {
        continue;
      }
      if (!seen.insert(next->CanonicalString()).second) continue;
      std::vector<RelaxOp> ops = frame.ops;
      ops.push_back(op);
      stack.push_back({*std::move(next), std::move(ops)});
    }
  }
  return false;
}

}  // namespace

std::string PlanVerdict::ToString() const {
  // Sequential appends rather than chained operator+: GCC 12's
  // -Wrestrict misfires on the chained form.
  if (ok) {
    std::string out = "ok";
    if (!op_path.empty()) {
      out += " via";
      for (const RelaxOp& op : op_path) {
        out += " ";
        out += op.ToString();
      }
    }
    if (provably_empty) {
      out += " [provably empty: ";
      out += *provably_empty;
      out += "]";
    }
    return out;
  }
  std::string out(code);
  out += ": ";
  out += detail;
  return out;
}

PlanVerdict VerifyRelaxation(const Tpq& original, const ScheduleEntry& entry,
                             const AnalyzerContext& ctx, size_t budget) {
  const LogicalQuery closure = Closure(ToLogical(original));

  // V001: Definition 1 requires a non-empty drop set — dropping nothing
  // re-evaluates the same query and cannot admit new answers.
  if (entry.dropped.empty()) {
    return Fail(kVerdictEmptyDrop, "relaxation drops no predicate");
  }

  // V002: every dropped predicate must come from the original closure.
  for (const Predicate& p : entry.dropped) {
    if (!closure.Has(p)) {
      return Fail(kVerdictDropNotInClosure,
                  "dropped predicate " + p.ToString(ctx.dict) +
                      " is not in the original closure");
    }
  }

  // The remainder: closure minus the (cumulative) drop set.
  LogicalQuery remainder;
  remainder.distinguished = closure.distinguished;
  remainder.exprs = closure.exprs;
  remainder.attr_preds = closure.attr_preds;
  for (const Predicate& p : closure.preds) {
    if (entry.dropped.count(p) == 0) remainder.preds.insert(p);
  }

  // V003: strict containment. If the remainder is equivalent to the
  // original (every dropped predicate is re-derivable from what is
  // left), the relaxation admits exactly the original answers.
  if (Equivalent(remainder, closure)) {
    return Fail(kVerdictNotStrict,
                "remainder is equivalent to the original query; "
                "containment is not strict");
  }

  // V004: the core of the remainder must be a well-formed TPQ
  // (Theorem 1 minimal form; Definition 2's well-formedness condition).
  Result<Tpq> core_tree = LogicalToTpq(Core(remainder));
  if (!core_tree.ok()) {
    return Fail(kVerdictCoreNotTree,
                "core of the remainder is not a tree pattern: " +
                    core_tree.status().message());
  }

  // V005: the emitted tree must match its own bookkeeping —
  // Closure(relaxed) has to be exactly closure − dropped, with the
  // distinguished variable unmoved.
  const LogicalQuery relaxed_closure = Closure(ToLogical(entry.relaxed));
  if (relaxed_closure.distinguished != closure.distinguished) {
    return Fail(kVerdictClosureMismatch,
                "relaxed query moved the distinguished variable");
  }
  if (relaxed_closure.preds != remainder.preds) {
    std::string detail =
        "Closure(relaxed) != original closure - dropped;";
    for (const Predicate& p : relaxed_closure.preds) {
      if (remainder.preds.count(p) == 0) {
        detail += " +" + p.ToString(ctx.dict);
      }
    }
    for (const Predicate& p : remainder.preds) {
      if (relaxed_closure.preds.count(p) == 0) {
        detail += " -" + p.ToString(ctx.dict);
      }
    }
    return Fail(kVerdictClosureMismatch, detail);
  }

  // V006: Theorem 2 completeness — some γ/λ/σ/κ composition must
  // rewrite the original into the relaxed query.
  PlanVerdict verdict;
  bool exhausted = false;
  if (!FindOpPath(original, entry.relaxed, budget, &verdict.op_path,
                  &exhausted)) {
    return Fail(kVerdictNoOperatorPath,
                exhausted
                    ? "operator-path search budget exhausted (" +
                          std::to_string(budget) + " states)"
                    : "no gamma/lambda/sigma/kappa composition reaches "
                      "the relaxed query");
  }

  // Static selectivity: flag rounds the corpus statistics prove empty.
  verdict.provably_empty = ProvablyEmptyReason(entry.relaxed, ctx);
  return verdict;
}

std::vector<PlanVerdict> VerifySchedule(
    const Tpq& original, const std::vector<ScheduleEntry>& schedule,
    const AnalyzerContext& ctx, size_t budget) {
  std::vector<PlanVerdict> verdicts;
  verdicts.reserve(schedule.size());
  for (const ScheduleEntry& entry : schedule) {
    verdicts.push_back(VerifyRelaxation(original, entry, ctx, budget));
  }
  return verdicts;
}

}  // namespace flexpath
