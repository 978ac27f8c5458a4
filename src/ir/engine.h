#ifndef FLEXPATH_IR_ENGINE_H_
#define FLEXPATH_IR_ENGINE_H_

#include <cassert>
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
///  - the satisfying set: every element whose *subtree* text satisfies
///    the expression (the semantics of contains($i, FTExp): true if at
///    least one node under $i matches), held as one bit per corpus node;
///  - `most_specific`: the deepest satisfying elements (no descendant also
///    satisfies), with tf-idf scores normalized to [0, 1] — this is what
///    the paper's IR engine returns, following XRANK [20] / [29].
/// Node `n` of document `d` owns bit `doc_base[d] + n`, where `doc_base`
/// holds the prefix sums of the corpus's document sizes (its last entry
/// is the corpus's node count), so bit order is global document order.
/// Most-specific elements have pairwise disjoint intervals, so the ones
/// inside any context interval form a contiguous run; a bottom-up segment
/// tree over their scores gives the range max for keyword scoring of
/// arbitrary contexts. Immutable after construction: every method is safe
/// to call from concurrent query workers without locking.
class ContainsResult {
 public:
  /// `bits` is the satisfying set; `count` its size and `tag_counts[t]`
  /// the number of its elements tagged `t` (tags past the end count 0).
  ContainsResult(const Corpus* corpus,
                 std::shared_ptr<const std::vector<uint64_t>> doc_base,
                 std::vector<uint64_t> bits, size_t count,
                 std::vector<size_t> tag_counts,
                 std::vector<ScoredNode> most_specific);

  /// Number of satisfying elements.
  size_t count() const { return count_; }
  const std::vector<ScoredNode>& most_specific() const {
    return most_specific_;
  }

  /// True iff the subtree of `context` satisfies the expression.
  /// `context` must be a node the corpus's DocSize counts (one of a
  /// document that failed to decode satisfies nothing).
  bool Satisfies(NodeRef context) const {
    const std::vector<uint64_t>& base = *doc_base_;
    assert(context.doc + size_t{1} < base.size());
    const uint64_t bit = base[context.doc] + context.node;
    assert(bit < base[context.doc + 1]);
    return (bits_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// Highest IR score among most-specific matches within the subtree of
  /// `context` (inclusive). Returns 0 when nothing matches there.
  double BestScoreWithin(NodeRef context) const;

  /// Number of satisfying elements whose tag is `tag` — the paper's
  /// #contains(t, FTExp) statistic used in penalties.
  size_t CountWithTag(TagId tag) const {
    return tag < tag_counts_.size() ? tag_counts_[tag] : 0;
  }

  /// Charged size of this result in the engine's LRU cache: the bitmap,
  /// the per-tag counts, the scored nodes and the segment tree (the
  /// engine's shared doc_base is not charged).
  size_t ApproxBytes() const;

 private:
  const Corpus* corpus_;
  std::shared_ptr<const std::vector<uint64_t>> doc_base_;
  std::vector<uint64_t> bits_;
  size_t count_;
  std::vector<size_t> tag_counts_;
  std::vector<ScoredNode> most_specific_;
  /// Range-max segment tree over most_specific_ scores: leaf i at
  /// tree_[n + i], node j the max of its children 2j and 2j + 1.
  std::vector<double> tree_;
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
  /// Computes the satisfying set for `expr` (subtree semantics) as a
  /// bitmap indexed by doc_base_.
  std::vector<uint64_t> SatisfyingSet(const FtExpr& expr) const;

  /// Elements directly matching a term/phrase/near (before closure).
  std::vector<NodeRef> DirectMatches(const FtExpr& expr) const;

  /// True if the postings (one per phrase word, same element) contain a
  /// consecutive run.
  static bool PhraseAt(const std::vector<const Posting*>& entry);

  /// True if some `window`-token span covers every word at least once.
  static bool NearAt(const std::vector<const Posting*>& entry,
                     uint32_t window);

  /// Adds `term`'s (1 + log tf) * idf to each node of `specific` (sorted,
  /// pairwise disjoint), tf summed over the node's subtree. Nodes whose
  /// subtree lacks the term are left unchanged.
  void AddTermScores(const std::string& term,
                     std::vector<ScoredNode>* specific) const;

  const Corpus* corpus_;
  /// Bit of node 0 of each document, then the corpus's node count:
  /// prefix sums of Corpus::DocSize, which packed mode serves from the
  /// directory without decoding.
  std::shared_ptr<const std::vector<uint64_t>> doc_base_;
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
