#include "tests/naive_evaluator.h"

#include <algorithm>
#include <cassert>
#include <map>

namespace flexpath {

namespace {

/// True iff the sorted set `nodes` has an element strictly inside
/// `anc`'s interval satisfying the axis relative to `anc`.
bool HasRelated(const Corpus& corpus, const std::vector<NodeRef>& nodes,
                NodeRef anc, Axis axis) {
  const NodeSpan& a = corpus.span(anc);
  auto it = std::upper_bound(nodes.begin(), nodes.end(), anc);
  for (; it != nodes.end(); ++it) {
    if (it->doc != anc.doc) break;
    const NodeSpan& e = corpus.span(*it);
    if (e.start >= a.end) break;
    if (axis == Axis::kDescendant) return true;
    if (e.level == a.level + 1) return true;
  }
  return false;
}

/// True iff some element of sorted `parents` is an ancestor (or parent,
/// per axis) of `node`.
bool HasUpward(const Corpus& corpus, const std::vector<NodeRef>& parents,
               NodeRef node, Axis axis) {
  const Document& doc = corpus.doc(node.doc);
  if (axis == Axis::kChild) {
    const NodeId p = doc.span(node.node).parent;
    if (p == kInvalidNode) return false;
    return std::binary_search(parents.begin(), parents.end(),
                              NodeRef{node.doc, p});
  }
  for (NodeId p = doc.span(node.node).parent; p != kInvalidNode;
       p = doc.span(p).parent) {
    if (std::binary_search(parents.begin(), parents.end(),
                           NodeRef{node.doc, p})) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<NodeRef> NaiveEvaluate(const ElementIndex& index, const Tpq& q,
                                   IrEngine* ir) {
  const Corpus& corpus = index.corpus();
  if (q.empty()) return {};

  // Downward match sets, computed for children before parents. Vars() is
  // in insertion order with parents first, so iterate in reverse.
  std::map<VarId, std::vector<NodeRef>> down;
  std::vector<VarId> vars = q.Vars();
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    const VarId v = *it;
    const TpqNode& n = q.node(v);
    std::vector<NodeRef> set;
    // Candidate elements by tag (or every element for a wildcard).
    auto consider = [&](NodeRef ref) {
      for (const AttrPred& ap : n.attr_preds) {
        const std::string* val =
            corpus.DocWithContent(ref.doc).FindAttribute(ref.node, ap.attr);
        if (val == nullptr || !ap.Matches(*val)) return;
      }
      for (const FtExpr& expr : n.contains) {
        assert(ir != nullptr && "query has contains but no IR engine");
        if (!ir->Evaluate(expr)->Satisfies(ref)) return;
      }
      for (VarId c : q.Children(v)) {
        if (!HasRelated(corpus, down[c], ref, q.AxisOf(c))) return;
      }
      set.push_back(ref);
    };
    if (n.tag != kInvalidTag) {
      for (NodeRef ref : index.Scan(n.tag)) consider(ref);
    } else {
      for (DocId d = 0; d < corpus.size(); ++d) {
        for (NodeId i = 0; i < corpus.doc(d).size(); ++i) {
          consider(NodeRef{d, i});
        }
      }
    }
    down[v] = std::move(set);
  }

  // Top-down validity: a node matches var v in a full match iff it is in
  // down[v] and has a valid parent-var element above it.
  std::map<VarId, std::vector<NodeRef>> valid;
  for (VarId v : vars) {
    const VarId parent = q.Parent(v);
    if (parent == kInvalidVar) {
      valid[v] = down[v];
      continue;
    }
    std::vector<NodeRef> set;
    for (NodeRef ref : down[v]) {
      if (HasUpward(corpus, valid[parent], ref, q.AxisOf(v))) {
        set.push_back(ref);
      }
    }
    valid[v] = std::move(set);
  }
  return valid[q.distinguished()];
}

}  // namespace flexpath
