#include "query/tpq.h"

#include <algorithm>
#include <cassert>

namespace flexpath {

VarId Tpq::AddRoot(TagId tag) {
  VarId var = next_var_++;
  AddRootVar(var, tag);
  return var;
}

VarId Tpq::AddChild(VarId parent_var, Axis axis, TagId tag) {
  VarId var = next_var_++;
  AddChildVar(var, parent_var, axis, tag);
  return var;
}

void Tpq::AddRootVar(VarId var, TagId tag) {
  assert(nodes_.empty());
  assert(var != kInvalidVar);
  TpqNode n;
  n.var = var;
  n.tag = tag;
  nodes_.push_back(std::move(n));
  parent_.push_back(-1);
  axis_.push_back(Axis::kChild);
  distinguished_ = var;
  next_var_ = std::max(next_var_, var + 1);
}

void Tpq::AddChildVar(VarId var, VarId parent_var, Axis axis, TagId tag) {
  int pidx = IndexOf(parent_var);
  assert(pidx >= 0 && "parent variable does not exist");
  assert(IndexOf(var) < 0 && "variable id already in use");
  TpqNode n;
  n.var = var;
  n.tag = tag;
  nodes_.push_back(std::move(n));
  parent_.push_back(pidx);
  axis_.push_back(axis);
  next_var_ = std::max(next_var_, var + 1);
}

void Tpq::AddContains(VarId var, FtExpr expr) {
  mutable_node(var).contains.push_back(std::move(expr));
}

void Tpq::AddAttrPred(VarId var, AttrPred pred) {
  mutable_node(var).attr_preds.push_back(std::move(pred));
}

std::vector<VarId> Tpq::Vars() const {
  std::vector<VarId> out;
  out.reserve(nodes_.size());
  for (const TpqNode& n : nodes_) out.push_back(n.var);
  return out;
}

int Tpq::IndexOf(VarId var) const {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].var == var) return static_cast<int>(i);
  }
  return -1;
}

const TpqNode& Tpq::node(VarId var) const {
  int idx = IndexOf(var);
  assert(idx >= 0);
  return nodes_[static_cast<size_t>(idx)];
}

TpqNode& Tpq::mutable_node(VarId var) {
  int idx = IndexOf(var);
  assert(idx >= 0);
  return nodes_[static_cast<size_t>(idx)];
}

VarId Tpq::Parent(VarId var) const {
  int idx = IndexOf(var);
  assert(idx >= 0);
  int pidx = parent_[static_cast<size_t>(idx)];
  return pidx < 0 ? kInvalidVar : nodes_[static_cast<size_t>(pidx)].var;
}

Axis Tpq::AxisOf(VarId var) const {
  int idx = IndexOf(var);
  assert(idx >= 0);
  return axis_[static_cast<size_t>(idx)];
}

void Tpq::SetAxis(VarId var, Axis axis) {
  int idx = IndexOf(var);
  assert(idx >= 0);
  axis_[static_cast<size_t>(idx)] = axis;
}

std::vector<VarId> Tpq::Children(VarId var) const {
  std::vector<VarId> out;
  int idx = IndexOf(var);
  if (idx < 0) return out;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (parent_[i] == idx) out.push_back(nodes_[i].var);
  }
  return out;
}

bool Tpq::IsLeaf(VarId var) const {
  const int idx = IndexOf(var);
  return idx < 0 || std::find(parent_.begin(), parent_.end(), idx) ==
                        parent_.end();
}

Status Tpq::DeleteLeaf(VarId var) {
  int idx = IndexOf(var);
  if (idx < 0) return Status::NotFound("no such variable");
  if (parent_[static_cast<size_t>(idx)] < 0) {
    return Status::InvalidArgument("cannot delete the root");
  }
  if (!IsLeaf(var)) return Status::InvalidArgument("node is not a leaf");
  if (distinguished_ == var) distinguished_ = Parent(var);
  // contains predicates survive the deletion at the parent: the closure
  // derives contains(parent, E) from contains(var, E), and the paper's
  // loosest interpretation explicitly keeps the full-text expression
  // (Section 1's Q6). Deleting a keyword requirement outright would
  // admit answers "not relevant to the query" (Section 3.1).
  if (!nodes_[static_cast<size_t>(idx)].contains.empty()) {
    TpqNode& parent_node =
        nodes_[static_cast<size_t>(parent_[static_cast<size_t>(idx)])];
    for (FtExpr& e : nodes_[static_cast<size_t>(idx)].contains) {
      parent_node.contains.push_back(std::move(e));
    }
  }
  // Remove the entry and fix parent indexes > idx.
  nodes_.erase(nodes_.begin() + idx);
  parent_.erase(parent_.begin() + idx);
  axis_.erase(axis_.begin() + idx);
  for (int& p : parent_) {
    if (p > idx) --p;
  }
  return Status::OK();
}

Status Tpq::Reparent(VarId var, VarId new_parent) {
  int idx = IndexOf(var);
  int pidx = IndexOf(new_parent);
  if (idx < 0 || pidx < 0) return Status::NotFound("no such variable");
  if (parent_[static_cast<size_t>(idx)] < 0) {
    return Status::InvalidArgument("cannot reparent the root");
  }
  for (int p = pidx; p >= 0; p = parent_[static_cast<size_t>(p)]) {
    if (p == idx) {
      return Status::InvalidArgument("new parent lies inside the subtree");
    }
  }
  parent_[static_cast<size_t>(idx)] = pidx;
  axis_[static_cast<size_t>(idx)] = Axis::kDescendant;
  return Status::OK();
}

Status Tpq::PromoteContains(VarId var) {
  int idx = IndexOf(var);
  if (idx < 0) return Status::NotFound("no such variable");
  if (parent_[static_cast<size_t>(idx)] < 0) {
    return Status::InvalidArgument("cannot promote contains from the root");
  }
  TpqNode& n = nodes_[static_cast<size_t>(idx)];
  if (n.contains.empty()) {
    return Status::InvalidArgument("node has no contains predicate");
  }
  TpqNode& p = nodes_[static_cast<size_t>(parent_[static_cast<size_t>(idx)])];
  for (FtExpr& e : n.contains) p.contains.push_back(std::move(e));
  n.contains.clear();
  return Status::OK();
}

Status Tpq::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("empty query");
  if (parent_[0] != -1) return Status::Internal("first node must be root");
  for (size_t i = 1; i < nodes_.size(); ++i) {
    if (parent_[i] < 0) return Status::Internal("multiple roots");
    // Walk to the root, guarding against cycles.
    size_t steps = 0;
    for (int p = parent_[i]; p >= 0; p = parent_[static_cast<size_t>(p)]) {
      if (++steps > nodes_.size()) return Status::Internal("parent cycle");
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (size_t j = i + 1; j < nodes_.size(); ++j) {
      if (nodes_[i].var == nodes_[j].var) {
        return Status::Internal("duplicate variable id");
      }
    }
  }
  if (IndexOf(distinguished_) < 0) {
    return Status::Internal("distinguished variable missing");
  }
  return Status::OK();
}

namespace {

std::string AxisPrefix(Axis a) {
  return a == Axis::kChild ? "/" : "//";
}

}  // namespace

std::string Tpq::ToString(const TagDict& dict) const {
  if (nodes_.empty()) return "(empty)";
  // Render as root with bracketed branches; mark the distinguished node
  // with a trailing '!'.
  struct Renderer {
    const Tpq& q;
    const TagDict& dict;
    std::string Render(VarId var, Axis axis, bool is_root) const {
      const TpqNode& n = q.node(var);
      std::string out = is_root ? "//" : AxisPrefix(axis);
      out += n.tag == kInvalidTag ? "*" : dict.Name(n.tag);
      if (var == q.distinguished()) out += "!";
      std::vector<std::string> preds;
      // Sequential appends rather than one chained concatenation: GCC
      // 12's -Wrestrict misfires on the chained operator+ form here.
      for (const FtExpr& e : n.contains) {
        std::string p = ".contains(";
        p += e.ToString();
        p += ")";
        preds.push_back(std::move(p));
      }
      for (const AttrPred& a : n.attr_preds) {
        preds.push_back(a.ToString(&dict));
      }
      for (VarId c : q.Children(var)) {
        std::string p = ".";
        p += Render(c, q.AxisOf(c), false);
        preds.push_back(std::move(p));
      }
      if (!preds.empty()) {
        out += "[";
        for (size_t i = 0; i < preds.size(); ++i) {
          if (i > 0) out += " and ";
          out += preds[i];
        }
        out += "]";
      }
      return out;
    }
  };
  return Renderer{*this, dict}.Render(root(), Axis::kDescendant, true);
}

std::string Tpq::CanonicalSubtree(size_t idx, const TagDict* dict) const {
  const TpqNode& n = nodes_[idx];
  std::string out = "(";
  out += idx == 0 ? "r" : (axis_[idx] == Axis::kChild ? "c" : "d");
  out += ":";
  if (dict == nullptr) {
    out += std::to_string(n.tag);
  } else {
    out += n.tag == kInvalidTag ? "*" : dict->Name(n.tag);
  }
  if (n.var == distinguished_) out += "!";
  std::vector<std::string> preds;
  // Sequential appends: GCC 12's -Wrestrict misfires on "C" + ToString().
  for (const FtExpr& e : n.contains) {
    std::string p = "C";
    p += e.ToString();
    preds.push_back(std::move(p));
  }
  for (const AttrPred& a : n.attr_preds) {
    std::string p = "A";
    p += a.ToString(dict);
    preds.push_back(std::move(p));
  }
  std::vector<std::string> kids;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (parent_[i] == static_cast<int>(idx)) {
      kids.push_back(CanonicalSubtree(i, dict));
    }
  }
  std::sort(preds.begin(), preds.end());
  std::sort(kids.begin(), kids.end());
  for (const std::string& p : preds) out += p;
  for (const std::string& k : kids) out += k;
  out += ")";
  return out;
}

std::string Tpq::CanonicalString(const TagDict* dict) const {
  if (nodes_.empty()) return "()";
  return CanonicalSubtree(0, dict);
}

size_t Tpq::ContainsCount() const {
  size_t n = 0;
  for (const TpqNode& node : nodes_) n += node.contains.size();
  return n;
}

}  // namespace flexpath
