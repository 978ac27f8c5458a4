#include "query/logical.h"

namespace flexpath {

std::string LogicalQuery::ToString(const TagDict* dict) const {
  std::string out;
  for (const Predicate& p : preds) {
    if (!out.empty()) out += " ^ ";
    out += p.ToString(dict);
  }
  out += " [dist=$" + std::to_string(distinguished) + "]";
  return out;
}

LogicalQuery ToLogical(const Tpq& q) {
  LogicalQuery out;
  out.distinguished = q.distinguished();
  for (VarId v : q.Vars()) {
    const TpqNode& n = q.node(v);
    if (n.tag != kInvalidTag) out.preds.insert(Predicate::Tag(v, n.tag));
    for (const FtExpr& e : n.contains) {
      out.preds.insert(Predicate::Contains(v, e));
      out.exprs.emplace(e.ToString(), e);
    }
    if (!n.attr_preds.empty()) out.attr_preds[v] = n.attr_preds;
    const VarId p = q.Parent(v);
    if (p != kInvalidVar) {
      out.preds.insert(q.AxisOf(v) == Axis::kChild ? Predicate::Pc(p, v)
                                                   : Predicate::Ad(p, v));
    }
  }
  return out;
}

LogicalQuery TreeClosure(const Tpq& q) {
  LogicalQuery out = ToLogical(q);
  for (VarId v : q.Vars()) {
    std::vector<std::string> keys;
    for (const FtExpr& e : q.node(v).contains) keys.push_back(e.ToString());
    for (VarId a = q.Parent(v); a != kInvalidVar; a = q.Parent(a)) {
      out.preds.insert(Predicate::Ad(a, v));
      for (const std::string& key : keys) {
        out.preds.insert(Predicate::ContainsKey(a, key));
      }
    }
  }
  return out;
}

}  // namespace flexpath
