#ifndef FLEXPATH_TESTS_CONTAINMENT_H_
#define FLEXPATH_TESTS_CONTAINMENT_H_

#include "query/logical.h"
#include "query/tpq.h"

namespace flexpath {

/// Decides Q ⊆ Q' (every answer of Q on every database is an answer of
/// Q') for tree pattern queries via a homomorphism check: Q ⊆ Q' iff
/// there is a mapping h from Q''s variables to Q's variables with
/// h(dist') = dist that maps each predicate of Q' into the closure of Q.
/// For the wildcard-free fragment used here, homomorphism is sound and
/// complete (Miklau & Suciu [24] place the hardness at wildcards +
/// branching + //; our relaxation tests stay in the tractable case).
/// Exponential in |Q'| in the worst case; queries are tiny.
bool ContainedIn(const Tpq& q, const Tpq& q_prime);

/// Same, over logical forms (q, q_prime need not be cores).
bool ContainedIn(const LogicalQuery& q, const LogicalQuery& q_prime);

}  // namespace flexpath

#endif  // FLEXPATH_TESTS_CONTAINMENT_H_
