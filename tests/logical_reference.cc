#include "tests/logical_reference.h"

#include <map>
#include <vector>

namespace flexpath {

namespace {

/// One round of the Figure 3 inference rules over `preds`; returns true if
/// anything new was added.
bool InferenceRound(std::set<Predicate>* preds) {
  std::vector<Predicate> added;
  // pc(x,y) |- ad(x,y)
  for (const Predicate& p : *preds) {
    if (p.kind == PredKind::kPc) {
      Predicate ad = Predicate::Ad(p.x, p.y);
      if (preds->count(ad) == 0) added.push_back(ad);
    }
  }
  // ad(x,y), ad(y,z) |- ad(x,z)
  for (const Predicate& a : *preds) {
    if (a.kind != PredKind::kAd) continue;
    for (const Predicate& b : *preds) {
      if (b.kind != PredKind::kAd || a.y != b.x) continue;
      Predicate t = Predicate::Ad(a.x, b.y);
      if (preds->count(t) == 0) added.push_back(t);
    }
  }
  // ad(x,y), contains(y,E) |- contains(x,E)
  for (const Predicate& a : *preds) {
    if (a.kind != PredKind::kAd) continue;
    for (const Predicate& c : *preds) {
      if (c.kind != PredKind::kContains || c.x != a.y) continue;
      Predicate up = Predicate::ContainsKey(a.x, c.expr_key);
      if (preds->count(up) == 0) added.push_back(up);
    }
  }
  if (added.empty()) return false;
  for (Predicate& p : added) preds->insert(std::move(p));
  return true;
}

}  // namespace

LogicalQuery Closure(const LogicalQuery& q) {
  LogicalQuery out = q;
  while (InferenceRound(&out.preds)) {
  }
  return out;
}

bool Derivable(const std::set<Predicate>& base, const Predicate& p) {
  if (p.kind == PredKind::kPc || p.kind == PredKind::kTag) {
    return false;  // no rule produces pc or tag predicates
  }
  std::set<Predicate> rest = base;
  rest.erase(p);
  while (true) {
    if (rest.count(p) > 0) return true;
    if (!InferenceRound(&rest)) return rest.count(p) > 0;
  }
}

LogicalQuery Core(const LogicalQuery& q) {
  LogicalQuery out = Closure(q);
  // Greedily delete redundant predicates until none remains. Theorem 1:
  // the result is the same whatever the order; we iterate in the set's
  // deterministic order (property tests shuffle to confirm).
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Predicate& p : out.preds) {
      if (Derivable(out.preds, p)) {
        out.preds.erase(p);
        changed = true;
        break;  // iterator invalidated; restart scan
      }
    }
  }
  return out;
}

bool Equivalent(const LogicalQuery& a, const LogicalQuery& b) {
  return Closure(a) == Closure(b);
}

Result<Tpq> LogicalToTpq(const LogicalQuery& input) {
  LogicalQuery q = Core(input);

  // Collect variables (structural predicates first, then the rest so a
  // single-node query still has its variable).
  std::set<VarId> vars;
  bool has_structural = false;
  for (const Predicate& p : q.preds) {
    if (p.kind == PredKind::kPc || p.kind == PredKind::kAd) {
      has_structural = true;
      vars.insert(p.x);
      vars.insert(p.y);
    }
  }
  if (!has_structural) {
    for (const Predicate& p : q.preds) vars.insert(p.x);
    if (vars.empty() && q.distinguished != kInvalidVar) {
      vars.insert(q.distinguished);
    }
  }
  if (vars.empty()) return Status::InvalidArgument("no variables");
  if (vars.count(q.distinguished) == 0) {
    return Status::InvalidArgument("distinguished variable not in query");
  }

  // Tag constraints: at most one per variable.
  std::map<VarId, TagId> tags;
  for (const Predicate& p : q.preds) {
    if (p.kind != PredKind::kTag) continue;
    if (vars.count(p.x) == 0) continue;  // auto-dropped variable
    auto [it, inserted] = tags.emplace(p.x, p.tag);
    if (!inserted && it->second != p.tag) {
      return Status::InvalidArgument("conflicting tag constraints on $" +
                                     std::to_string(p.x));
    }
  }

  // Incoming edge per variable: in a core, each non-root variable has
  // exactly one incoming pc or ad edge.
  std::map<VarId, std::pair<VarId, Axis>> incoming;
  for (const Predicate& p : q.preds) {
    if (p.kind != PredKind::kPc && p.kind != PredKind::kAd) continue;
    Axis axis = p.kind == PredKind::kPc ? Axis::kChild : Axis::kDescendant;
    auto [it, inserted] = incoming.emplace(p.y, std::make_pair(p.x, axis));
    if (!inserted) {
      return Status::InvalidArgument(
          "variable $" + std::to_string(p.y) +
          " has multiple incoming edges; not a tree pattern");
    }
  }

  // Exactly one root.
  VarId root = kInvalidVar;
  for (VarId v : vars) {
    if (incoming.count(v) == 0) {
      if (root != kInvalidVar) {
        return Status::InvalidArgument("pattern is disconnected");
      }
      root = v;
    }
  }
  if (root == kInvalidVar) {
    return Status::InvalidArgument("pattern has a cycle");
  }

  // Build the tree top-down.
  Tpq out;
  auto tag_of = [&](VarId v) {
    auto it = tags.find(v);
    return it == tags.end() ? kInvalidTag : it->second;
  };
  out.AddRootVar(root, tag_of(root));
  // Repeatedly attach variables whose parent is already present.
  std::set<VarId> placed = {root};
  while (placed.size() < vars.size()) {
    bool progress = false;
    for (VarId v : vars) {
      if (placed.count(v) > 0) continue;
      auto it = incoming.find(v);
      if (it == incoming.end()) continue;
      if (placed.count(it->second.first) == 0) continue;
      out.AddChildVar(v, it->second.first, it->second.second, tag_of(v));
      placed.insert(v);
      progress = true;
    }
    if (!progress) {
      return Status::InvalidArgument("pattern is disconnected or cyclic");
    }
  }

  // Attach contains and attribute predicates.
  for (const Predicate& p : q.preds) {
    if (p.kind != PredKind::kContains) continue;
    if (vars.count(p.x) == 0) continue;
    auto it = q.exprs.find(p.expr_key);
    if (it == q.exprs.end()) {
      // Expression registry can be incomplete for hand-built logical
      // queries; reconstruct a single-term expression from the key is not
      // possible in general, so report it.
      return Status::InvalidArgument("missing FTExp for key " + p.expr_key);
    }
    out.AddContains(p.x, it->second);
  }
  for (const auto& [v, preds] : q.attr_preds) {
    if (vars.count(v) == 0) continue;
    for (const AttrPred& a : preds) out.AddAttrPred(v, a);
  }
  out.SetDistinguished(q.distinguished);
  FLEXPATH_RETURN_IF_ERROR(out.Validate());
  return out;
}

bool IsValidRelaxationDrop(const Tpq& q, const std::set<Predicate>& dropped) {
  const LogicalQuery closure = Closure(ToLogical(q));
  const VarId root = q.root();
  LogicalQuery remainder = closure;
  for (const Predicate& p : dropped) remainder.preds.erase(p);

  // Auto-drop value predicates of variables that no longer appear in any
  // structural predicate (Section 3.3).
  std::set<VarId> alive;
  bool has_structural = false;
  for (const Predicate& p : remainder.preds) {
    if (p.kind == PredKind::kPc || p.kind == PredKind::kAd) {
      has_structural = true;
      alive.insert(p.x);
      alive.insert(p.y);
    }
  }
  if (has_structural) {
    for (auto it = remainder.preds.begin(); it != remainder.preds.end();) {
      if ((it->kind == PredKind::kTag || it->kind == PredKind::kContains) &&
          alive.count(it->x) == 0) {
        it = remainder.preds.erase(it);
      } else {
        ++it;
      }
    }
  }

  // (v) the root and the distinguished variable must survive.
  if (has_structural &&
      (alive.count(root) == 0 || alive.count(closure.distinguished) == 0)) {
    return false;
  }

  for (const Predicate& p : dropped) {
    // (iii) tag predicates only disappear with their variable.
    if (p.kind == PredKind::kTag) {
      if (!has_structural || alive.count(p.x) > 0) return false;
      continue;
    }
    // (iv) contains predicates are value-based and leave the query only
    // through promotion (Definition 2) or with their variable: a dropped
    // contains(x, E) needs x dead, or a surviving contains(·, E) on an
    // ancestor of x.
    if (p.kind != PredKind::kContains) continue;
    if (has_structural && alive.count(p.x) == 0) continue;  // var died
    bool promoted_survives = false;
    for (const Predicate& r : remainder.preds) {
      if (r.kind == PredKind::kContains && r.expr_key == p.expr_key &&
          closure.Has(Predicate::Ad(r.x, p.x))) {
        promoted_survives = true;
        break;
      }
    }
    if (!promoted_survives) return false;
  }

  // (vi) derivation consistency: for each expression, the remainder's
  // *minimal* carriers (those not derivable from a deeper surviving
  // carrier) must correspond one-to-one with original contains
  // predicates, each sitting on (an ancestor of) its original position.
  // This is what the operators span — a structural drop that detaches a
  // carrier while keeping its derived copy as an independent requirement
  // is outside the space Theorem 2's completeness covers.
  {
    // Original contains positions per expression key.
    std::map<std::string, std::vector<VarId>> originals;
    for (VarId v : q.Vars()) {
      for (const FtExpr& e : q.node(v).contains) {
        originals[e.ToString()].push_back(v);
      }
    }
    const LogicalQuery remainder_closure = Closure(remainder);
    std::map<std::string, std::vector<VarId>> minimal;
    for (const Predicate& p : remainder.preds) {
      if (p.kind != PredKind::kContains) continue;
      bool derivable_from_deeper = false;
      for (const Predicate& r : remainder.preds) {
        if (r.kind == PredKind::kContains && r.expr_key == p.expr_key &&
            r.x != p.x && remainder_closure.Has(Predicate::Ad(p.x, r.x))) {
          derivable_from_deeper = true;
          break;
        }
      }
      if (!derivable_from_deeper) minimal[p.expr_key].push_back(p.x);
    }
    for (const auto& [key, carriers] : minimal) {
      auto it = originals.find(key);
      if (it == originals.end()) return false;
      if (carriers.size() > it->second.size()) return false;
      for (VarId y : carriers) {
        bool attributable = false;
        for (VarId x : it->second) {
          if (y == x || closure.Has(Predicate::Ad(y, x))) {
            attributable = true;
            break;
          }
        }
        if (!attributable) return false;
      }
    }
  }

  // (i) must not be equivalent to the closure.
  if (Closure(remainder) == closure) return false;
  // (ii) the core must be a tree pattern query.
  return LogicalToTpq(remainder).ok();
}

std::set<Predicate> DroppedPredicates(const Tpq& q,
                                      const LogicalQuery& closure,
                                      const RelaxOp& op) {
  std::set<Predicate> dropped;
  Result<Tpq> relaxed = ApplyOp(q, op);
  if (!relaxed.ok()) return dropped;
  const LogicalQuery relaxed_closure = TreeClosure(*relaxed);
  for (const Predicate& p : closure.preds) {
    if (relaxed_closure.preds.count(p) == 0) dropped.insert(p);
  }
  return dropped;
}

}  // namespace flexpath
