#ifndef FLEXPATH_RELAX_RELAXATION_H_
#define FLEXPATH_RELAX_RELAXATION_H_

#include <cstddef>
#include <vector>

#include "query/tpq.h"

namespace flexpath {

/// All distinct relaxations reachable from `q` by composing operators,
/// including `q` itself, deduplicated by canonical form. Breadth-first;
/// stops after `limit` distinct queries (the space is exponential in the
/// pattern size). Used by examples and tests.
std::vector<Tpq> RelaxationSpace(const Tpq& q, size_t limit = 256);

}  // namespace flexpath

#endif  // FLEXPATH_RELAX_RELAXATION_H_
