#ifndef FLEXPATH_IR_ENGINE_H_
#define FLEXPATH_IR_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "ir/ft_expr.h"
#include "ir/inverted_index.h"
#include "xml/corpus.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// A node with its normalized IR relevance score in [0, 1].
struct ScoredNode {
  NodeRef node;
  double score = 0.0;
};

/// The materialized answer to one FTExp evaluation:
///  - `satisfying`: every element whose *subtree* text satisfies the
///    expression (the semantics of contains($i, FTExp): true if at least
///    one node under $i matches), sorted in global document order;
///  - `most_specific`: the deepest satisfying elements (no descendant also
///    satisfies), with tf-idf scores normalized to [0, 1] — this is what
///    the paper's IR engine returns, following XRANK [20] / [29].
/// Most-specific elements have pairwise disjoint intervals, so the ones
/// inside any context interval form a contiguous run; a sparse table gives
/// O(1) range-max for keyword scoring of arbitrary contexts.
class ContainsResult {
 public:
  ContainsResult(const Corpus* corpus, std::vector<NodeRef> satisfying,
                 std::vector<ScoredNode> most_specific);

  const std::vector<NodeRef>& satisfying() const { return satisfying_; }
  const std::vector<ScoredNode>& most_specific() const {
    return most_specific_;
  }

  /// True iff the subtree of `context` satisfies the expression.
  bool Satisfies(NodeRef context) const;

  /// Highest IR score among most-specific matches within the subtree of
  /// `context` (inclusive). Returns 0 when nothing matches there.
  double BestScoreWithin(NodeRef context) const;

  /// Number of satisfying elements whose tag is `tag` — the paper's
  /// #contains(t, FTExp) statistic used in penalties. Cached per tag;
  /// safe to call from concurrent query workers.
  size_t CountWithTag(TagId tag) const;

  /// Charged size of this result in the engine's LRU cache: the node and
  /// score vectors plus the sparse table (the per-tag count memo is small
  /// and grows after insertion, so it is not charged).
  size_t ApproxBytes() const;

 private:
  const Corpus* corpus_;
  std::vector<NodeRef> satisfying_;
  std::vector<ScoredNode> most_specific_;
  /// Sparse table over most_specific_ scores: level l holds the max over
  /// windows of length 2^l.
  std::vector<std::vector<double>> rmq_;
  /// Guards tag_counts_ — the only mutable state; everything else is
  /// read-only after construction, so Satisfies/BestScoreWithin need no
  /// locking.
  mutable Mutex tag_counts_mu_;
  mutable std::unordered_map<TagId, size_t> tag_counts_
      GUARDED_BY(tag_counts_mu_);
};

/// The full-text search engine of the FleXPath architecture (Figure 7):
/// evaluates contains predicates and returns ranked (node, score) lists.
/// Results are cached by canonical expression text in a byte-budgeted
/// LRU, the engine's one budgeted cache: its keys are user expressions,
/// so unlike the per-tag and per-term lists the indexes keep, their
/// number is not bounded by the corpus. Callers hold results as
/// shared_ptr, so eviction never invalidates one in use.
class IrEngine {
 public:
  /// Default byte budget of the contains-result cache.
  static constexpr size_t kDefaultCacheBudgetBytes = size_t{128} << 20;

  /// `corpus` must outlive the engine and not change after construction.
  explicit IrEngine(const Corpus* corpus, TokenizerOptions opts = {});

  /// Packed mode: the inverted index forwards to `source` (the packed
  /// reader's posting section) instead of tokenizing the corpus.
  IrEngine(const Corpus* corpus, TokenizerOptions opts,
           std::shared_ptr<const PostingSource> source);

  IrEngine(const IrEngine&) = delete;
  IrEngine& operator=(const IrEngine&) = delete;

  /// Evaluates `expr`, returning a cached result. Safe to call from
  /// concurrent query workers: the cache is mutex-guarded (first-time
  /// evaluation of an expression serializes; hits are a lookup under the
  /// lock). The returned result stays valid as long as the caller holds
  /// the pointer, even if the LRU evicts the entry meanwhile.
  std::shared_ptr<const ContainsResult> Evaluate(const FtExpr& expr);

  struct CacheStats {
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t budget = 0;
  };
  CacheStats GetCacheStats() const;

  const InvertedIndex& index() const { return index_; }

 private:
  /// Computes the sorted satisfying set for `expr` (subtree semantics).
  std::vector<NodeRef> SatisfyingSet(const FtExpr& expr) const;

  /// Elements directly matching a term/phrase/near (before closure).
  std::vector<NodeRef> DirectMatches(const FtExpr& expr) const;

  /// True if the postings (one per phrase word, same element) contain a
  /// consecutive run.
  static bool PhraseAt(const std::vector<const Posting*>& entry);

  /// True if some `window`-token span covers every word at least once.
  static bool NearAt(const std::vector<const Posting*>& entry,
                     uint32_t window);

  /// Closes `direct` (sorted, unique) under ancestors, returning a sorted
  /// deduped set.
  std::vector<NodeRef> AncestorClosure(
      const std::vector<NodeRef>& direct) const;

  /// Adds `term`'s (1 + log tf) * idf to each node of `specific` (sorted,
  /// pairwise disjoint), tf summed over the node's subtree. Nodes whose
  /// subtree lacks the term are left unchanged.
  void AddTermScores(const std::string& term,
                     std::vector<ScoredNode>* specific) const;

  /// All element NodeRefs of the corpus in order (universe for NOT).
  std::vector<NodeRef> Universe() const;

  const Corpus* corpus_;
  InvertedIndex index_;
  mutable Mutex cache_mu_;
  mutable LruByteCache<std::string, ContainsResult> cache_
      GUARDED_BY(cache_mu_);
  /// Evictions already mirrored into the ir.cache_evictions counter
  /// (per-instance high-water mark, so several engines sum correctly).
  uint64_t exported_evictions_ GUARDED_BY(cache_mu_) = 0;
};

}  // namespace flexpath

#endif  // FLEXPATH_IR_ENGINE_H_
