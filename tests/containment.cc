#include "tests/containment.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "tests/logical_reference.h"

namespace flexpath {

namespace {

/// Backtracking search for a homomorphism h: vars(Q') -> vars(Q) mapping
/// every predicate of Q' into Closure(Q).
class HomomorphismSearch {
 public:
  HomomorphismSearch(const LogicalQuery& target_closure,
                     const LogicalQuery& source)
      : target_(target_closure), source_(source) {
    std::set<VarId> vars;
    for (const Predicate& p : source_.preds) {
      vars.insert(p.x);
      if (p.kind == PredKind::kPc || p.kind == PredKind::kAd) {
        vars.insert(p.y);
      }
    }
    vars.insert(source_.distinguished);
    source_vars_.assign(vars.begin(), vars.end());

    std::set<VarId> tvars;
    for (const Predicate& p : target_.preds) {
      tvars.insert(p.x);
      if (p.kind == PredKind::kPc || p.kind == PredKind::kAd) {
        tvars.insert(p.y);
      }
    }
    tvars.insert(target_.distinguished);
    target_vars_.assign(tvars.begin(), tvars.end());
  }

  bool Run() {
    mapping_[source_.distinguished] = target_.distinguished;
    if (!ConsistentFor(source_.distinguished)) return false;
    return Extend(0);
  }

 private:
  bool Extend(size_t idx) {
    if (idx == source_vars_.size()) return CheckAll();
    const VarId sv = source_vars_[idx];
    if (mapping_.count(sv) > 0) {
      return ConsistentFor(sv) && Extend(idx + 1);
    }
    for (VarId tv : target_vars_) {
      mapping_[sv] = tv;
      if (ConsistentFor(sv) && Extend(idx + 1)) return true;
      mapping_.erase(sv);
    }
    return false;
  }

  /// Checks every source predicate whose variables are all mapped and
  /// which involves `sv`.
  bool ConsistentFor(VarId sv) {
    for (const Predicate& p : source_.preds) {
      const bool binary =
          p.kind == PredKind::kPc || p.kind == PredKind::kAd;
      if (p.x != sv && !(binary && p.y == sv)) continue;
      if (!CheckMapped(p)) return false;
    }
    return true;
  }

  bool CheckAll() {
    for (const Predicate& p : source_.preds) {
      if (!CheckMapped(p)) return false;
    }
    return true;
  }

  /// True if `p`'s image under the (possibly partial) mapping is present
  /// in the target closure; unmapped variables defer the check.
  bool CheckMapped(const Predicate& p) {
    auto x = mapping_.find(p.x);
    if (x == mapping_.end()) return true;
    switch (p.kind) {
      case PredKind::kPc:
      case PredKind::kAd: {
        auto y = mapping_.find(p.y);
        if (y == mapping_.end()) return true;
        Predicate image = p.kind == PredKind::kPc
                              ? Predicate::Pc(x->second, y->second)
                              : Predicate::Ad(x->second, y->second);
        return target_.Has(image);
      }
      case PredKind::kTag:
        return target_.Has(Predicate::Tag(x->second, p.tag));
      case PredKind::kContains:
        return target_.Has(Predicate::ContainsKey(x->second, p.expr_key));
    }
    return false;
  }

  const LogicalQuery& target_;
  const LogicalQuery& source_;
  std::vector<VarId> source_vars_;
  std::vector<VarId> target_vars_;
  std::map<VarId, VarId> mapping_;
};

}  // namespace

bool ContainedIn(const LogicalQuery& q, const LogicalQuery& q_prime) {
  LogicalQuery closure = Closure(q);
  return HomomorphismSearch(closure, q_prime).Run();
}

bool ContainedIn(const Tpq& q, const Tpq& q_prime) {
  return ContainedIn(ToLogical(q), ToLogical(q_prime));
}

}  // namespace flexpath
