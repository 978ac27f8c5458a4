#ifndef FLEXPATH_STATS_DOCUMENT_STATS_H_
#define FLEXPATH_STATS_DOCUMENT_STATS_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "xml/corpus.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Corpus statistics backing penalty computation (Section 4.3.1) and
/// selectivity estimation (Section 6):
///  - #(t)          — number of elements with tag t;
///  - #pc(t1, t2)   — number of (parent, child) element pairs typed
///                    (t1, t2);
///  - #ad(t1, t2)   — number of (ancestor, descendant) pairs typed
///                    (t1, t2).
/// Built with one pass that walks each node's ancestor chain, O(N * depth).
class DocumentStats {
 public:
  /// The raw statistics tables, exposed so a packed corpus can persist
  /// them at pack time and restore them at open time without the
  /// O(N * depth) corpus pass. Pair maps are keyed (t1 << 32) | t2.
  struct Tables {
    std::vector<uint64_t> tag_counts;
    std::unordered_map<uint64_t, uint64_t> pc_counts;
    std::unordered_map<uint64_t, uint64_t> ad_counts;
    std::unordered_map<uint64_t, uint64_t> pc_exists;
    std::unordered_map<uint64_t, uint64_t> ad_exists;
  };

  /// `corpus` must outlive the stats and not change afterwards.
  explicit DocumentStats(const Corpus* corpus);

  /// Restores whole-corpus statistics from pre-computed tables (packed
  /// open path). The tables must have been produced by ExportTables()
  /// over an identical corpus — byte-identical penalties depend on it.
  DocumentStats(const Corpus* corpus, Tables tables);

  /// Snapshot of the tables for serialization.
  Tables ExportTables() const;

  DocumentStats(const DocumentStats&) = delete;
  DocumentStats& operator=(const DocumentStats&) = delete;

  /// #(t): elements with tag `t`.
  uint64_t TagCount(TagId t) const;

  /// #pc(t1, t2): parent-child pairs.
  uint64_t PcCount(TagId t1, TagId t2) const;

  /// #ad(t1, t2): ancestor-descendant pairs (proper; includes pc pairs).
  uint64_t AdCount(TagId t1, TagId t2) const;

  /// Fraction of t1-elements with at least one t2 child — the "60% of A's
  /// have a B child" statistic of the paper's estimator. In [0, 1].
  double PcFraction(TagId t1, TagId t2) const;

  /// Fraction of t1-elements with at least one t2 proper descendant.
  double AdFraction(TagId t1, TagId t2) const;

  const Corpus& corpus() const { return *corpus_; }

 private:
  static uint64_t PairKey(TagId a, TagId b) {
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  const Corpus* corpus_;
  std::vector<uint64_t> tag_counts_;
  std::unordered_map<uint64_t, uint64_t> pc_counts_;
  std::unordered_map<uint64_t, uint64_t> ad_counts_;
  /// Number of t1-elements having >= 1 t2 child / descendant (for the
  /// existence fractions used by selectivity estimation).
  std::unordered_map<uint64_t, uint64_t> pc_exists_;
  std::unordered_map<uint64_t, uint64_t> ad_exists_;
};

}  // namespace flexpath

#endif  // FLEXPATH_STATS_DOCUMENT_STATS_H_
