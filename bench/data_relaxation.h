#ifndef FLEXPATH_BENCH_DATA_RELAXATION_H_
#define FLEXPATH_BENCH_DATA_RELAXATION_H_

#include <cstdint>
#include <vector>

#include "ir/engine.h"
#include "query/tpq.h"
#include "xml/corpus.h"

namespace flexpath {

/// The third evaluation strategy for approximate XML queries surveyed in
/// Section 7: *data relaxation* (APPROXML [14]) — instead of relaxing the
/// query, relax the data by "computing a closure of the document graph,
/// inserting shortcut edges between each pair of nodes in the same
/// path". Exact parent-child queries over the relaxed graph then behave
/// like fully axis-generalized queries.
///
/// The paper dismisses the strategy because it "was shown to quickly
/// fail with large databases": the shortcut closure holds one edge per
/// ancestor-descendant pair, i.e. Θ(N · depth) edges, against the
/// original tree's N − 1. This class implements the strategy faithfully
/// (materialized closure + evaluation over it) so the bench suite can
/// quantify that cost against FleXPath's query-side relaxation.
class DataRelaxationIndex {
 public:
  /// Materializes the shortcut closure of every document in `corpus`
  /// (which must outlive the index).
  explicit DataRelaxationIndex(const Corpus* corpus);

  DataRelaxationIndex(const DataRelaxationIndex&) = delete;
  DataRelaxationIndex& operator=(const DataRelaxationIndex&) = delete;

  /// Total shortcut edges materialized.
  uint64_t edge_count() const { return edge_count_; }

  /// Approximate bytes held by the closure (edges only).
  uint64_t ApproxBytes() const {
    return edge_count_ * sizeof(NodeId) + offsets_bytes_;
  }

  /// The shortcut children of `node` — its proper descendants, as an
  /// explicit edge list (sorted by node id).
  const NodeId* EdgesBegin(NodeRef node) const;
  const NodeId* EdgesEnd(NodeRef node) const;

  /// Evaluates `q` over the relaxed graph: every pattern edge (pc or ad)
  /// matches a shortcut edge, so the result equals the fully
  /// axis-generalized query's answers. `ir` may be null when the query
  /// has no contains predicates.
  std::vector<NodeRef> Evaluate(const Tpq& q, IrEngine* ir) const;

 private:
  const Corpus* corpus_;
  /// Per document: flat edge array plus per-node offsets into it.
  std::vector<std::vector<NodeId>> edges_;
  std::vector<std::vector<size_t>> offsets_;
  uint64_t edge_count_ = 0;
  uint64_t offsets_bytes_ = 0;
};

}  // namespace flexpath

#endif  // FLEXPATH_BENCH_DATA_RELAXATION_H_
