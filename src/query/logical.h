#ifndef FLEXPATH_QUERY_LOGICAL_H_
#define FLEXPATH_QUERY_LOGICAL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/predicate.h"
#include "query/tpq.h"

namespace flexpath {

/// The logical form of a TPQ (Figure 2): a set of predicates plus the
/// distinguished variable. Predicates are kept sorted and unique, so two
/// logical queries are equal iff their predicate sets are equal.
/// `exprs` maps each contains key back to its FtExpr so trees can be
/// reconstructed; `attr_preds` carries the never-relaxed value predicates
/// through closure/core untouched.
struct LogicalQuery {
  std::set<Predicate> preds;
  VarId distinguished = kInvalidVar;
  std::map<std::string, FtExpr> exprs;
  std::map<VarId, std::vector<AttrPred>> attr_preds;

  bool Has(const Predicate& p) const { return preds.count(p) > 0; }

  /// Predicate-set equality (ignores the expr registry, which is derived).
  friend bool operator==(const LogicalQuery& a, const LogicalQuery& b) {
    return a.preds == b.preds && a.distinguished == b.distinguished;
  }

  std::string ToString(const TagDict* dict = nullptr) const;
};

/// Converts a TPQ to its logical form (the conjunction of its structural,
/// tag and contains predicates — Figure 2).
LogicalQuery ToLogical(const Tpq& q);

/// Computes the closure (Section 3.2): conjoins every predicate derivable
/// by the inference rules of Figure 3 —
///   pc(x,y)            |- ad(x,y)
///   ad(x,y), ad(y,z)   |- ad(x,z)
///   ad(x,y), contains(y,E) |- contains(x,E)
/// Idempotent; Closure(Closure(q)) == Closure(q).
LogicalQuery Closure(const LogicalQuery& q);

/// The closure of a TPQ read off its tree, without inference rounds:
/// tag(v) for each tagged variable, pc(parent,v) on child edges, ad(a,v)
/// for every proper ancestor a of v, and contains(a,E) for every
/// ancestor-or-self a of each carrier of E. O(vars × depth). Equal to
/// Closure(ToLogical(q)), which stays the reference for logical forms
/// that are not trees.
LogicalQuery TreeClosure(const Tpq& q);

/// True iff `p` is derivable from `base` by the inference rules (p not
/// counted as its own derivation).
bool Derivable(const std::set<Predicate>& base, const Predicate& p);

/// Computes the core (Section 3.2): the unique minimal query equivalent
/// to `q` — removes every predicate derivable from the remaining ones.
/// Theorem 1 guarantees the result is independent of removal order.
LogicalQuery Core(const LogicalQuery& q);

/// True iff the two logical queries are equivalent (equal closures).
bool Equivalent(const LogicalQuery& a, const LogicalQuery& b);

/// Reconstructs a TPQ from a logical query (typically a core). Fails if
/// the structural predicates do not form a tree (each non-root variable
/// needs exactly one incoming pc/ad edge after minimization), if a
/// variable carries two different tag constraints, or if the
/// distinguished variable is absent.
Result<Tpq> LogicalToTpq(const LogicalQuery& q);

/// Checks whether a candidate drop set is a valid relaxation per the
/// paper's Definitions 1-2 (with the implicit restrictions Section 3.1
/// spells out): `dropped` yields a valid relaxation iff
///  (i)   the remainder is not equivalent to the closure,
///  (ii)  its core is a tree pattern query,
///  (iii) explicitly dropped predicates are structural or contains —
///        tag predicates only disappear with their variable,
///  (iv)  a dropped contains(x, E) is a *promotion*: either x dies, or a
///        contains(·, E) survives on an ancestor of x (the paper never
///        drops the full-text requirement outright),
///  (v)   the query root `root` and the distinguished variable survive
///        (dropping the root "admits non-articles as answers ... we do
///        not consider them further", Section 3.1),
///  (vi)  contains bookkeeping stays derivation-consistent: for each
///        full-text expression, the remainder has at most one *minimal*
///        carrier per original contains predicate, sitting on (an
///        ancestor of) the original position. Structural drops may not
///        detach a carrier while leaving its derived copy behind as an
///        independent requirement — Theorem 2's completeness needs
///        derived predicates to travel with their derivations.
/// Used by tests to validate the operator algebra (Theorem 2); the
/// runtime path never needs containment checks.
bool IsValidRelaxationDrop(const Tpq& q, const std::set<Predicate>& dropped);

}  // namespace flexpath

#endif  // FLEXPATH_QUERY_LOGICAL_H_
