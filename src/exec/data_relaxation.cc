#include "exec/data_relaxation.h"

#include <algorithm>
#include <map>

namespace flexpath {

DataRelaxationIndex::DataRelaxationIndex(const Corpus* corpus)
    : corpus_(corpus) {
  edges_.resize(corpus_->size());
  offsets_.resize(corpus_->size());
  for (DocId d = 0; d < corpus_->size(); ++d) {
    const Document& doc = corpus_->doc(d);
    std::vector<NodeId>& edges = edges_[d];
    std::vector<size_t>& offsets = offsets_[d];
    offsets.resize(doc.size() + 1, 0);
    // Pre-order gives each node a contiguous descendant range; the
    // closure still materializes every pair explicitly — that is the
    // strategy's cost, which we reproduce on purpose.
    for (NodeId n = 0; n < doc.size(); ++n) {
      offsets[n] = edges.size();
      const uint32_t end = doc.span(n).end;
      for (NodeId m = n + 1; m < doc.size() && doc.span(m).start < end;
           ++m) {
        edges.push_back(m);
      }
    }
    offsets[doc.size()] = edges.size();
    edge_count_ += edges.size();
    offsets_bytes_ += offsets.size() * sizeof(size_t);
  }
}

const NodeId* DataRelaxationIndex::EdgesBegin(NodeRef node) const {
  return edges_[node.doc].data() + offsets_[node.doc][node.node];
}

const NodeId* DataRelaxationIndex::EdgesEnd(NodeRef node) const {
  return edges_[node.doc].data() + offsets_[node.doc][node.node + 1];
}

std::vector<NodeRef> DataRelaxationIndex::Evaluate(
    const Tpq& q, IrEngine* ir) const {
  if (q.empty()) return {};
  // Downward match sets over the shortcut graph (children before
  // parents), then a top-down validity pass — the naive evaluator's
  // scheme, but every pattern edge matches a shortcut edge.
  std::map<VarId, std::vector<NodeRef>> down;
  const std::vector<VarId> vars = q.Vars();
  for (auto it = vars.rbegin(); it != vars.rend(); ++it) {
    const VarId v = *it;
    const TpqNode& n = q.node(v);
    std::vector<NodeRef> set;
    for (DocId d = 0; d < corpus_->size(); ++d) {
      const Document& doc = n.attr_preds.empty() ? corpus_->doc(d)
                                                 : corpus_->DocWithContent(d);
      for (NodeId i = 0; i < doc.size(); ++i) {
        if (n.tag != kInvalidTag && doc.node(i).tag != n.tag) continue;
        const NodeRef ref{d, i};
        bool ok = true;
        for (const AttrPred& ap : n.attr_preds) {
          const std::string* val = doc.FindAttribute(i, ap.attr);
          if (val == nullptr || !ap.Matches(*val)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (const FtExpr& expr : n.contains) {
          if (ir == nullptr || !ir->Evaluate(expr)->Satisfies(ref)) {
            ok = false;
            break;
          }
        }
        if (!ok) continue;
        for (VarId c : q.Children(v)) {
          const std::vector<NodeRef>& child_set = down[c];
          // Probe the shortcut edge list against the child match set.
          bool found = false;
          for (const NodeId* edge = EdgesBegin(ref); edge != EdgesEnd(ref);
               ++edge) {
            if (std::binary_search(child_set.begin(), child_set.end(),
                                   NodeRef{d, *edge})) {
              found = true;
              break;
            }
          }
          if (!found) {
            ok = false;
            break;
          }
        }
        if (ok) set.push_back(ref);
      }
    }
    down[v] = std::move(set);
  }

  // Top-down validity.
  std::map<VarId, std::vector<NodeRef>> valid;
  for (VarId v : vars) {
    const VarId parent = q.Parent(v);
    if (parent == kInvalidVar) {
      valid[v] = down[v];
      continue;
    }
    std::vector<NodeRef> set;
    const std::vector<NodeRef>& parents = valid[parent];
    for (NodeRef ref : down[v]) {
      // Some valid parent must have a shortcut edge to ref — i.e. be a
      // proper ancestor in the same document.
      bool found = false;
      for (NodeRef p : parents) {
        if (p.doc == ref.doc &&
            corpus_->doc(p.doc).IsAncestor(p.node, ref.node)) {
          found = true;
          break;
        }
      }
      if (found) set.push_back(ref);
    }
    valid[v] = std::move(set);
  }
  return std::move(valid[q.distinguished()]);
}

}  // namespace flexpath
