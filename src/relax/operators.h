#ifndef FLEXPATH_RELAX_OPERATORS_H_
#define FLEXPATH_RELAX_OPERATORS_H_

#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/logical.h"
#include "query/tpq.h"

namespace flexpath {

/// The four primitive relaxation operators of Section 3.5. Theorem 2:
/// they are sound (each application yields a valid relaxation) and
/// complete (every valid relaxation is a finite composition of them).
enum class RelaxOpKind : uint8_t {
  kAxisGeneralization,  ///< γ: pc-edge to $var becomes an ad-edge (3.5.1)
  kLeafDeletion,        ///< λ: delete leaf $var and its predicates (3.5.2)
  kSubtreePromotion,    ///< σ: move subtree at $var under its grandparent
                        ///  with an ad-edge (3.5.3)
  kContainsPromotion,   ///< κ: move contains($var, E) to $var's parent
                        ///  (3.5.4)
};

/// One operator application site.
struct RelaxOp {
  RelaxOpKind kind = RelaxOpKind::kAxisGeneralization;
  VarId var = kInvalidVar;  ///< γ: the child end of the edge; λ: the leaf;
                            ///  σ: the promoted node; κ: the contains holder.
  std::string expr_key;     ///< κ only: which contains expression.

  friend bool operator==(const RelaxOp&, const RelaxOp&) = default;
  friend auto operator<=>(const RelaxOp&, const RelaxOp&) = default;

  std::string ToString() const;
};

/// Enumerates every operator application applicable to `q`:
///  - γ on each pc-edge,
///  - λ on each non-root leaf,
///  - σ on each node with a grandparent,
///  - κ on each contains predicate on a non-root node.
std::vector<RelaxOp> ApplicableOps(const Tpq& q);

/// Applies `op`, returning the relaxed query (variable ids preserved).
/// Fails if the op is not applicable to `q`.
Result<Tpq> ApplyOp(const Tpq& q, const RelaxOp& op);

}  // namespace flexpath

#endif  // FLEXPATH_RELAX_OPERATORS_H_
