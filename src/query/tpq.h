#ifndef FLEXPATH_QUERY_TPQ_H_
#define FLEXPATH_QUERY_TPQ_H_

#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "ir/ft_expr.h"
#include "query/predicate.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Edge axis between a TPQ node and its parent.
enum class Axis : uint8_t {
  kChild,       ///< parent-child (single edge in the paper's figures)
  kDescendant,  ///< ancestor-descendant (double edge)
};

/// One node of a tree pattern query.
struct TpqNode {
  VarId var = kInvalidVar;     ///< Stable variable id ($i).
  TagId tag = kInvalidTag;     ///< Tag constraint; kInvalidTag = wildcard.
  std::vector<FtExpr> contains;    ///< contains($var, FTExp) predicates.
  std::vector<AttrPred> attr_preds;  ///< Never-relaxed value predicates.
};

/// A tree pattern query (T, F) — the paper's query class (Section 2.1):
/// a rooted tree with pc/ad edges, tag constraints, contains predicates
/// and a distinguished answer node. Variable ids are stable identities;
/// relaxation operators produce new Tpqs that reuse the original ids so
/// that predicate weights and penalties stay attached to the right
/// variables.
class Tpq {
 public:
  Tpq() = default;
  Tpq(const Tpq&) = default;
  Tpq& operator=(const Tpq&) = default;
  Tpq(Tpq&&) = default;
  Tpq& operator=(Tpq&&) = default;

  /// Creates the root node. Must be called exactly once, first.
  VarId AddRoot(TagId tag);

  /// Adds a node under `parent_var` (which must exist) with the given
  /// axis and tag constraint; returns the new variable id.
  VarId AddChild(VarId parent_var, Axis axis, TagId tag);

  /// Like AddRoot/AddChild but with a caller-chosen variable id — used
  /// when reconstructing a TPQ from a logical form, where variable ids
  /// must be preserved. Ids must be unique within the query.
  void AddRootVar(VarId var, TagId tag);
  void AddChildVar(VarId var, VarId parent_var, Axis axis, TagId tag);

  /// Attaches contains($var, expr).
  void AddContains(VarId var, FtExpr expr);

  /// Attaches an attribute predicate to $var.
  void AddAttrPred(VarId var, AttrPred pred);

  /// Marks $var as the distinguished (answer) node. Defaults to the root.
  void SetDistinguished(VarId var) { distinguished_ = var; }

  // --- Accessors -------------------------------------------------------

  size_t size() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }

  /// Variables in insertion (pre-order-ish) order.
  std::vector<VarId> Vars() const;

  VarId root() const { return nodes_.empty() ? kInvalidVar : nodes_[0].var; }
  VarId distinguished() const { return distinguished_; }

  bool HasVar(VarId var) const { return IndexOf(var) >= 0; }
  const TpqNode& node(VarId var) const;
  TpqNode& mutable_node(VarId var);

  /// Parent variable of $var (kInvalidVar for the root).
  VarId Parent(VarId var) const;

  /// Axis of the edge from Parent($var) to $var.
  Axis AxisOf(VarId var) const;
  void SetAxis(VarId var, Axis axis);

  /// Children of $var in insertion order.
  std::vector<VarId> Children(VarId var) const;

  /// True iff $var has no children (also for an absent $var).
  bool IsLeaf(VarId var) const;

  // --- Mutators used by relaxation operators ---------------------------

  /// Removes leaf $var (with its predicates). If $var was distinguished,
  /// its parent becomes distinguished (Section 3.5.2). Fails on the root
  /// or a non-leaf.
  Status DeleteLeaf(VarId var);

  /// Re-parents the subtree rooted at $var under `new_parent` with an
  /// ad-edge (Section 3.5.3 uses the grandparent). Fails if `new_parent`
  /// is inside the moved subtree.
  Status Reparent(VarId var, VarId new_parent);

  /// Moves every contains predicate on $var to its parent
  /// (Section 3.5.4). Fails on the root.
  Status PromoteContains(VarId var);

  // --- Derived forms ---------------------------------------------------

  /// Structural sanity check: one root, acyclic parent links, var ids
  /// unique, distinguished var present.
  Status Validate() const;

  /// XPath-like rendering for diagnostics, e.g.
  /// `//article[.//algorithm]/section` — linearizes the tree with the
  /// distinguished node as the spine end.
  std::string ToString(const TagDict& dict) const;

  /// Order-insensitive canonical form; equal trees (same shape, tags,
  /// axes, predicates, distinguished position) yield equal strings even
  /// if built in different child orders or with different var ids. Tags
  /// and attribute names render as ids, or by name through `dict` (a
  /// wildcard as `*`), which keeps the string stable across corpora that
  /// intern in different orders.
  std::string CanonicalString(const TagDict* dict = nullptr) const;

  /// Total number of contains predicates.
  size_t ContainsCount() const;

 private:
  int IndexOf(VarId var) const;
  std::string CanonicalSubtree(size_t idx, const TagDict* dict) const;

  std::vector<TpqNode> nodes_;
  std::vector<int> parent_;  ///< Index into nodes_; -1 for root.
  std::vector<Axis> axis_;   ///< Axis to parent; root entry unused.
  VarId distinguished_ = kInvalidVar;
  VarId next_var_ = 1;  ///< The paper numbers variables from $1.
};

}  // namespace flexpath

#endif  // FLEXPATH_QUERY_TPQ_H_
