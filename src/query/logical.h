#ifndef FLEXPATH_QUERY_LOGICAL_H_
#define FLEXPATH_QUERY_LOGICAL_H_

#include <map>
#include <set>
#include <string>
#include <vector>

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

/// The closure of a TPQ (Section 3.2): every predicate the inference
/// rules of Figure 3 derive,
///   pc(x,y)            |- ad(x,y)
///   ad(x,y), ad(y,z)   |- ad(x,z)
///   ad(x,y), contains(y,E) |- contains(x,E)
/// read off the tree without inference rounds: tag(v) for each tagged
/// variable, pc(parent,v) on child edges, ad(a,v) for every proper
/// ancestor a of v, and contains(a,E) for every ancestor-or-self a of
/// each carrier of E. O(vars × depth). The fixpoint over arbitrary
/// logical forms is a test reference (tests/logical_reference.h).
LogicalQuery TreeClosure(const Tpq& q);

}  // namespace flexpath

#endif  // FLEXPATH_QUERY_LOGICAL_H_
