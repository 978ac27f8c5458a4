#include "analysis/analyzer.h"

#include <algorithm>
#include <map>
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

/// Path renderer shared by every diagnostic: tree spine when the input
/// was a Tpq, bare variable otherwise.
struct PathRenderer {
  const Tpq* tree = nullptr;  ///< Null for raw logical inputs.
  const TagDict* dict = nullptr;

  std::string operator()(VarId var) const {
    if (tree == nullptr || var == kInvalidVar || !tree->HasVar(var)) {
      return VarLabel(var);
    }
    return VarPath(*tree, var, dict);
  }
};

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

/// Undirected connected component of `seed` over the pc/ad predicates.
std::set<VarId> StructuralComponent(const std::set<Predicate>& preds,
                                    VarId seed) {
  std::map<VarId, std::vector<VarId>> adj;
  for (const Predicate& p : preds) {
    if (p.kind != PredKind::kPc && p.kind != PredKind::kAd) continue;
    adj[p.x].push_back(p.y);
    adj[p.y].push_back(p.x);
  }
  std::set<VarId> seen;
  std::vector<VarId> frontier;
  seen.insert(seed);
  frontier.push_back(seed);
  while (!frontier.empty()) {
    VarId v = frontier.back();
    frontier.pop_back();
    auto it = adj.find(v);
    if (it == adj.end()) continue;
    for (VarId w : it->second) {
      if (seen.insert(w).second) frontier.push_back(w);
    }
  }
  return seen;
}

/// The shared pass body. `tree` is non-null when the caller analyzed a
/// Tpq (richer paths, per-node corpus checks in tree order).
AnalysisReport AnalyzeImpl(const LogicalQuery& q, const Tpq* tree,
                           const AnalyzerContext& ctx) {
  AnalysisReport report;
  PathRenderer path{tree, ctx.dict};

  // --- Closure-based structural checks (corpus-independent) ----------
  const LogicalQuery closure = Closure(q);

  // FX002: two different tag constraints on one variable. Tag predicates
  // are never dropped, so a conflict is unsatisfiable at every
  // relaxation depth — relaxation rounds on such a query are all wasted.
  std::map<VarId, std::set<TagId>> tags;
  for (const Predicate& p : closure.preds) {
    if (p.kind == PredKind::kTag) tags[p.x].insert(p.tag);
  }
  for (const auto& [var, tag_set] : tags) {
    if (tag_set.size() < 2) continue;
    std::string names;
    for (TagId t : tag_set) {
      if (!names.empty()) names += " vs ";
      names += TagName(t, ctx.dict);
    }
    Add(&report, DiagSeverity::kError, kDiagTagConflict,
        "conflicting tag constraints on " + VarLabel(var) + ": " + names,
        path(var), var);
  }

  // FX003: structural contradiction. The inference rules close ad under
  // transitivity without excluding x == z, so any pc/ad cycle surfaces
  // as a derived ad(x,x) — an element that is its own proper ancestor.
  std::set<VarId> cyclic;
  for (const Predicate& p : closure.preds) {
    if ((p.kind == PredKind::kAd || p.kind == PredKind::kPc) &&
        p.x == p.y) {
      cyclic.insert(p.x);
    }
  }
  for (VarId var : cyclic) {
    Add(&report, DiagSeverity::kError, kDiagStructuralCycle,
        "structural predicates place " + VarLabel(var) +
            " strictly above itself (pc/ad cycle)",
        path(var), var);
  }

  // FX004 / FX005: connectivity to the answer node. Variables the
  // structural predicates do not tie to the distinguished component can
  // never constrain (or be) an answer.
  if (q.distinguished == kInvalidVar) {
    Add(&report, DiagSeverity::kError, kDiagUnreachableAnswer,
        "query has no distinguished (answer) variable", "", kInvalidVar);
  } else {
    const std::set<VarId> component =
        StructuralComponent(q.preds, q.distinguished);
    std::set<VarId> all_vars;
    for (const Predicate& p : q.preds) {
      all_vars.insert(p.x);
      if (p.kind == PredKind::kPc || p.kind == PredKind::kAd) {
        all_vars.insert(p.y);
      }
    }
    std::set<VarId> has_contains;
    for (const Predicate& p : q.preds) {
      if (p.kind == PredKind::kContains) has_contains.insert(p.x);
    }
    for (VarId var : all_vars) {
      if (component.count(var) > 0) continue;
      if (has_contains.count(var) > 0) {
        Add(&report, DiagSeverity::kError, kDiagDanglingContains,
            "contains target " + VarLabel(var) +
                " is not connected to the answer variable " +
                VarLabel(q.distinguished),
            path(var), var);
      } else {
        Add(&report, DiagSeverity::kError, kDiagUnreachableAnswer,
            VarLabel(var) + " is not connected to the answer variable " +
                VarLabel(q.distinguished),
            path(var), var);
      }
    }
  }

  // FX201: a stated predicate already implied by the rest of the query.
  // Dropping it is a no-op relaxation — the remainder is equivalent, so
  // a DPO round spent on it re-evaluates the same query.
  for (const Predicate& p : q.preds) {
    if (p.kind == PredKind::kTag) continue;
    if (!Derivable(q.preds, p)) continue;
    Add(&report, DiagSeverity::kWarning, kDiagRedundantPredicate,
        "predicate " + p.ToString(ctx.dict) +
            " is implied by the rest of the query; dropping it is a "
            "no-op relaxation",
        path(p.x), p.x);
  }

  // --- Corpus-level unsatisfiability (needs context) ------------------
  const bool exact_pairs =
      ctx.stats != nullptr &&
      (ctx.index == nullptr || ctx.index->hierarchy() == nullptr);

  // FX101: tag with zero elements (subtype-aware via the element index).
  if (ctx.index != nullptr) {
    for (const auto& [var, tag_set] : tags) {
      for (TagId t : tag_set) {
        if (ctx.index->Count(t) > 0) continue;
        Add(&report, DiagSeverity::kError, kDiagEmptyTag,
            "tag <" + TagName(t, ctx.dict) + "> matches no element in "
            "the corpus",
            path(var), var);
      }
    }
  }

  // FX102: contains expression with an empty satisfying set.
  if (ctx.ir != nullptr) {
    for (const Predicate& p : q.preds) {
      if (p.kind != PredKind::kContains) continue;
      auto it = q.exprs.find(p.expr_key);
      if (it == q.exprs.end()) continue;
      if (ctx.ir->Evaluate(it->second)->count() > 0) continue;
      Add(&report, DiagSeverity::kError, kDiagEmptyContains,
          "contains(" + VarLabel(p.x) + ", " + p.expr_key +
              ") matches no element in the corpus",
          path(p.x), p.x);
    }
  }

  // FX103: an edge between tags with zero such pairs anywhere in the
  // corpus. Pair counts are exact only without a TypeHierarchy, so the
  // check is gated on that (soundness over coverage).
  if (exact_pairs) {
    auto single_tag = [&](VarId v) -> TagId {
      auto it = tags.find(v);
      if (it == tags.end() || it->second.size() != 1) return kInvalidTag;
      return *it->second.begin();
    };
    for (const Predicate& p : q.preds) {
      if (p.kind != PredKind::kPc && p.kind != PredKind::kAd) continue;
      const TagId t1 = single_tag(p.x);
      const TagId t2 = single_tag(p.y);
      if (t1 == kInvalidTag || t2 == kInvalidTag) continue;
      const bool pc = p.kind == PredKind::kPc;
      const uint64_t pairs = pc ? ctx.stats->PcCount(t1, t2)
                                : ctx.stats->AdCount(t1, t2);
      if (pairs > 0) continue;
      Add(&report, DiagSeverity::kError, kDiagDeadEdge,
          std::string("no <") + TagName(t1, ctx.dict) + "> has a <" +
              TagName(t2, ctx.dict) + "> " +
              (pc ? "child" : "descendant") + " anywhere in the corpus",
          path(p.y), p.y);
    }
  }

  // Deterministic order: by code, then variable, then message.
  std::sort(report.diagnostics.begin(), report.diagnostics.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.code != b.code) return a.code < b.code;
              if (a.var != b.var) return a.var < b.var;
              return a.message < b.message;
            });
  return report;
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
  if (Status st = q.Validate(); !st.ok()) {
    AnalysisReport report;
    Add(&report, DiagSeverity::kError, kDiagMalformed,
        "malformed tree pattern: " + st.message(), "", kInvalidVar);
    return report;
  }
  return AnalyzeImpl(ToLogical(q), &q, ctx);
}

AnalysisReport AnalyzeLogical(const LogicalQuery& q,
                              const AnalyzerContext& ctx) {
  return AnalyzeImpl(q, nullptr, ctx);
}

std::optional<std::string> ProvablyEmptyReason(const Tpq& q,
                                               const AnalyzerContext& ctx) {
  const bool exact_pairs =
      ctx.stats != nullptr &&
      (ctx.index == nullptr || ctx.index->hierarchy() == nullptr);
  for (VarId v : q.Vars()) {
    const TpqNode& n = q.node(v);
    if (n.tag != kInvalidTag && ctx.index != nullptr &&
        ctx.index->Count(n.tag) == 0) {
      return "tag <" + TagName(n.tag, ctx.dict) + "> matches no element";
    }
    if (ctx.ir != nullptr) {
      for (const FtExpr& e : n.contains) {
        if (ctx.ir->Evaluate(e)->count() == 0) {
          return "contains(" + VarLabel(v) + ", " + e.ToString() +
                 ") matches nothing";
        }
      }
    }
    const VarId parent = q.Parent(v);
    if (parent != kInvalidVar && exact_pairs) {
      const TagId t1 = q.node(parent).tag;
      const TagId t2 = n.tag;
      if (t1 != kInvalidTag && t2 != kInvalidTag) {
        const bool pc = q.AxisOf(v) == Axis::kChild;
        const uint64_t pairs = pc ? ctx.stats->PcCount(t1, t2)
                                  : ctx.stats->AdCount(t1, t2);
        if (pairs == 0) {
          return std::string("no <") + TagName(t1, ctx.dict) + "> has a <" +
                 TagName(t2, ctx.dict) + "> " +
                 (pc ? "child" : "descendant");
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace flexpath
