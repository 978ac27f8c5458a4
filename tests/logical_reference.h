#ifndef FLEXPATH_TESTS_LOGICAL_REFERENCE_H_
#define FLEXPATH_TESTS_LOGICAL_REFERENCE_H_

#include <set>

#include "common/status.h"
#include "query/logical.h"
#include "query/tpq.h"
#include "relax/operators.h"

namespace flexpath {

/// The logical-form algebra of Section 3.2 over arbitrary predicate sets:
/// the Figure 3 fixpoint, core, equivalence, the way back to a tree and
/// Definition 1's validity test. The library reads every answer off the
/// tree instead (TreeClosure, the analyzer's tree walks); these stay the
/// reference the suites check it and Theorems 1-2 against.

/// Computes the closure (Section 3.2): conjoins every predicate derivable
/// by the inference rules of Figure 3 —
///   pc(x,y)            |- ad(x,y)
///   ad(x,y), ad(y,z)   |- ad(x,z)
///   ad(x,y), contains(y,E) |- contains(x,E)
/// Idempotent; Closure(Closure(q)) == Closure(q).
LogicalQuery Closure(const LogicalQuery& q);

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
bool IsValidRelaxationDrop(const Tpq& q, const std::set<Predicate>& dropped);

/// The set of closure predicates that applying `op` to `q` drops — the S
/// of Definition 1, computed exactly as
///   Closure(q).preds − Closure(ApplyOp(q, op)).preds.
/// Typical shapes: γ(x) drops {pc(parent,x)}; κ(x,E) drops
/// {contains(x,E)}; σ(x) drops the pc/ad predicates tying x's subtree to
/// x's old parent; λ(x) drops every predicate involving x plus any
/// derived contains predicates that no longer have a derivation.
/// `closure` must be the closure of q — TreeClosure(q), or equivalently
/// Closure(ToLogical(q)); the relaxed query's closure is read off its
/// tree with TreeClosure. Returns an empty set if the op is inapplicable.
std::set<Predicate> DroppedPredicates(const Tpq& q,
                                      const LogicalQuery& closure,
                                      const RelaxOp& op);

}  // namespace flexpath

#endif  // FLEXPATH_TESTS_LOGICAL_REFERENCE_H_
