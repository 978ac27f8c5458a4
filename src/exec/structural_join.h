#ifndef FLEXPATH_EXEC_STRUCTURAL_JOIN_H_
#define FLEXPATH_EXEC_STRUCTURAL_JOIN_H_

#include <vector>

#include "xml/corpus.h"

namespace flexpath {

/// An (ancestor, descendant) pair produced by a structural join.
struct JoinPair {
  NodeRef anc;
  NodeRef desc;

  friend bool operator==(const JoinPair&, const JoinPair&) = default;
};

/// Stack-based structural join (Stack-Tree of Al-Khalifa et al. [1], the
/// primitive the paper's join plans are built from). Inputs must be
/// sorted in global document order — which ElementIndex::Scan lists are
/// by construction. Output is sorted by (desc, anc).
///
/// `parent_only` restricts output to parent-child pairs (the pc predicate);
/// otherwise all ancestor-descendant pairs are produced.
std::vector<JoinPair> StructuralJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only);

/// Naive O(|A| * |D|) reference implementation, used by tests and the
/// ablation benchmark as the baseline the stack join is measured against.
std::vector<JoinPair> NestedLoopJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only);

}  // namespace flexpath

#endif  // FLEXPATH_EXEC_STRUCTURAL_JOIN_H_
