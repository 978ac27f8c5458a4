#include "exec/structural_join.h"

namespace flexpath {

namespace {

/// Global-order key for merging.
struct Pos {
  DocId doc;
  uint32_t start;

  friend auto operator<=>(const Pos&, const Pos&) = default;
};

Pos PosOf(const Corpus& corpus, NodeRef ref) {
  return Pos{ref.doc, corpus.span(ref).start};
}

bool Contains(const Corpus& corpus, NodeRef anc, NodeRef desc) {
  if (anc.doc != desc.doc) return false;
  const NodeSpan& a = corpus.span(anc);
  const NodeSpan& d = corpus.span(desc);
  return a.start < d.start && d.end < a.end;
}

}  // namespace

std::vector<JoinPair> StructuralJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only) {
  std::vector<JoinPair> out;
  // Parent-only joins emit at most one pair per descendant; ad joins
  // commonly emit about one (nesting of the same tag pair is shallow in
  // practice), so a one-per-descendant reservation avoids the early
  // doubling churn either way.
  out.reserve(descendants.size());
  std::vector<NodeRef> stack;
  size_t a = 0;
  size_t d = 0;
  while (d < descendants.size()) {
    const bool take_anc =
        a < ancestors.size() &&
        PosOf(corpus, ancestors[a]) < PosOf(corpus, descendants[d]);
    const NodeRef next = take_anc ? ancestors[a] : descendants[d];
    // Entries that do not contain `next` are finished.
    while (!stack.empty() && !Contains(corpus, stack.back(), next)) {
      stack.pop_back();
    }
    if (take_anc) {
      stack.push_back(next);
      ++a;
    } else {
      if (parent_only) {
        // Only the deepest open ancestor can be the parent.
        if (!stack.empty() &&
            corpus.span(stack.back()).level + 1 == corpus.span(next).level) {
          out.push_back(JoinPair{stack.back(), next});
        }
      } else {
        for (const NodeRef& anc : stack) {
          out.push_back(JoinPair{anc, next});
        }
      }
      ++d;
    }
  }
  return out;
}

std::vector<JoinPair> NestedLoopJoin(const Corpus& corpus,
                                     const std::vector<NodeRef>& ancestors,
                                     const std::vector<NodeRef>& descendants,
                                     bool parent_only) {
  std::vector<JoinPair> out;
  for (const NodeRef& d : descendants) {
    for (const NodeRef& anc : ancestors) {
      if (!Contains(corpus, anc, d)) continue;
      if (parent_only && !corpus.IsParent(anc, d)) continue;
      out.push_back(JoinPair{anc, d});
    }
  }
  return out;
}

}  // namespace flexpath
