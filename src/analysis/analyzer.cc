#include "analysis/analyzer.h"

#include <algorithm>
#include <set>
#include <vector>

namespace flexpath {

namespace {

// Sequential appends rather than chained operator+ in both helpers:
// GCC 12's -Wrestrict misfires on the chained form.
std::string TagName(TagId tag, const TagDict* dict) {
  if (tag == kInvalidTag) return "*";
  if (dict == nullptr || tag >= dict->size()) {
    std::string out = "#";
    out += std::to_string(tag);
    return out;
  }
  return dict->Name(tag);
}

std::string VarLabel(VarId var) {
  std::string out = "$";
  out += std::to_string(var);
  return out;
}

void Add(AnalysisReport* report, DiagSeverity severity,
         std::string_view code, std::string message, std::string path,
         VarId var) {
  Diagnostic d;
  d.severity = severity;
  d.code = std::string(code);
  d.message = std::move(message);
  d.path = std::move(path);
  d.var = var;
  report->diagnostics.push_back(std::move(d));
}

/// The corpus proofs that `q` has no answers, node by node in q.Vars()
/// order: the node's tag matches no element (FX101, subtype-aware
/// through the element index), a contains expression on it matches
/// nothing (FX102, once per distinct expression), or its parent edge
/// joins two tags with no such element pair (FX103; pair counts are
/// exact only without a TypeHierarchy, so only then). Each proof goes to
/// `emit(code, var, message)`, which returns whether to go on: every
/// proof is sound on its own, so a caller that needs one stops at the
/// first.
template <typename Emit>
void EmptinessProofs(const Tpq& q, const AnalyzerContext& ctx, Emit emit) {
  const bool exact_pairs =
      ctx.stats != nullptr &&
      (ctx.index == nullptr || ctx.index->hierarchy() == nullptr);
  for (VarId v : q.Vars()) {
    const TpqNode& n = q.node(v);
    if (n.tag != kInvalidTag && ctx.index != nullptr &&
        ctx.index->Scan(n.tag).empty() &&
        !emit(kDiagEmptyTag, v,
              "tag <" + TagName(n.tag, ctx.dict) +
                  "> matches no element in the corpus")) {
      return;
    }
    if (ctx.ir != nullptr) {
      std::set<std::string> proven;
      for (const FtExpr& e : n.contains) {
        if (ctx.ir->Evaluate(e)->count() > 0) continue;
        std::string key = e.ToString();
        if (!proven.insert(key).second) continue;
        if (!emit(kDiagEmptyContains, v,
                  "contains(" + VarLabel(v) + ", " + key +
                      ") matches no element in the corpus")) {
          return;
        }
      }
    }
    const VarId parent = q.Parent(v);
    if (parent == kInvalidVar || !exact_pairs) continue;
    const TagId t1 = q.node(parent).tag;
    const TagId t2 = n.tag;
    if (t1 == kInvalidTag || t2 == kInvalidTag) continue;
    const bool pc = q.AxisOf(v) == Axis::kChild;
    const uint64_t pairs =
        pc ? ctx.stats->PcCount(t1, t2) : ctx.stats->AdCount(t1, t2);
    if (pairs == 0 &&
        !emit(kDiagDeadEdge, v,
              std::string("no <") + TagName(t1, ctx.dict) + "> has a <" +
                  TagName(t2, ctx.dict) + "> " +
                  (pc ? "child" : "descendant") +
                  " anywhere in the corpus")) {
      return;
    }
  }
}

/// FX201: a stated predicate the rest of the query already implies, so
/// dropping it is a no-op relaxation that wastes a DPO round. On a tree
/// only contains(a, E) can be one, exactly when a proper descendant of a
/// states the same E (Figure 3's third rule). No rule derives a pc or
/// tag predicate, and a stated ad edge is a tree's only path between its
/// two nodes.
void AddRedundantContains(const Tpq& q, const AnalyzerContext& ctx,
                          AnalysisReport* report) {
  std::set<Predicate> redundant;
  for (VarId v : q.Vars()) {
    for (const FtExpr& e : q.node(v).contains) {
      const std::string key = e.ToString();
      for (VarId a = q.Parent(v); a != kInvalidVar; a = q.Parent(a)) {
        for (const FtExpr& stated : q.node(a).contains) {
          if (stated.ToString() == key) {
            redundant.insert(Predicate::ContainsKey(a, key));
          }
        }
      }
    }
  }
  for (const Predicate& p : redundant) {
    Add(report, DiagSeverity::kWarning, kDiagRedundantPredicate,
        "predicate " + p.ToString(ctx.dict) +
            " is implied by the rest of the query; dropping it is a "
            "no-op relaxation",
        VarPath(q, p.x, ctx.dict), p.x);
  }
}

}  // namespace

std::string VarPath(const Tpq& q, VarId var, const TagDict* dict) {
  if (!q.HasVar(var)) return VarLabel(var);
  std::vector<VarId> spine;
  for (VarId v = var; v != kInvalidVar; v = q.Parent(v)) {
    spine.push_back(v);
  }
  std::string out = VarLabel(var) + " (";
  for (auto it = spine.rbegin(); it != spine.rend(); ++it) {
    if (*it == q.root()) {
      out += "/";
    } else {
      out += q.AxisOf(*it) == Axis::kChild ? "/" : "//";
    }
    out += TagName(q.node(*it).tag, dict);
  }
  out += ")";
  return out;
}

AnalysisReport AnalyzeTpq(const Tpq& q, const AnalyzerContext& ctx) {
  AnalysisReport report;
  if (Status st = q.Validate(); !st.ok()) {
    Add(&report, DiagSeverity::kError, kDiagMalformed,
        "malformed tree pattern: " + st.message(), "", kInvalidVar);
    return report;
  }
  AddRedundantContains(q, ctx, &report);
  EmptinessProofs(q, ctx,
                  [&](std::string_view code, VarId var, std::string message) {
                    Add(&report, DiagSeverity::kError, code,
                        std::move(message), VarPath(q, var, ctx.dict), var);
                    return true;
                  });
  // Deterministic order: by code, then variable, then message.
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.code != b.code) return a.code < b.code;
              if (a.var != b.var) return a.var < b.var;
              return a.message < b.message;
            });
  return report;
}

std::optional<std::string> ProvablyEmptyReason(const Tpq& q,
                                               const AnalyzerContext& ctx) {
  std::optional<std::string> reason;
  EmptinessProofs(q, ctx, [&](std::string_view, VarId, std::string message) {
    reason = std::move(message);
    return false;
  });
  return reason;
}

}  // namespace flexpath
