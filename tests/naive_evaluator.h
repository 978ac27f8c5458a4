#ifndef FLEXPATH_TESTS_NAIVE_EVALUATOR_H_
#define FLEXPATH_TESTS_NAIVE_EVALUATOR_H_

#include <vector>

#include "ir/engine.h"
#include "query/tpq.h"
#include "stats/element_index.h"
#include "xml/corpus.h"

namespace flexpath {

/// Reference evaluator with exact TPQ match semantics (Section 2.1): an
/// answer is a data node x such that some match f maps the distinguished
/// variable to x. Computed with downward match sets (bottom-up over the
/// pattern) followed by a top-down validity pass — no relaxation, no
/// scores. The oracle the test suites compare the join engine against.
///
/// `ir` may be null only if the query has no contains predicates.
std::vector<NodeRef> NaiveEvaluate(const ElementIndex& index, const Tpq& q,
                                   IrEngine* ir);

}  // namespace flexpath

#endif  // FLEXPATH_TESTS_NAIVE_EVALUATOR_H_
