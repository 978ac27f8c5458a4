#include "ir/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/metrics.h"

namespace flexpath {

namespace {

/// Index of the first most-specific entry with node >= `ref` (by global
/// document order).
size_t LowerBoundScored(const std::vector<ScoredNode>& v, NodeRef ref) {
  auto it = std::lower_bound(
      v.begin(), v.end(), ref,
      [](const ScoredNode& s, const NodeRef& r) { return s.node < r; });
  return static_cast<size_t>(it - v.begin());
}

/// Bit of node 0 of each document, then the corpus's node count.
std::shared_ptr<const std::vector<uint64_t>> DocBase(const Corpus& corpus) {
  auto base = std::make_shared<std::vector<uint64_t>>(corpus.size() + 1, 0);
  for (DocId d = 0; d < corpus.size(); ++d) {
    (*base)[d + 1] = (*base)[d] + corpus.DocSize(d);
  }
  return base;
}

}  // namespace

ContainsResult::ContainsResult(
    const Corpus* corpus, std::shared_ptr<const std::vector<uint64_t>> doc_base,
    std::vector<uint64_t> bits, size_t count, std::vector<size_t> tag_counts,
    std::vector<ScoredNode> most_specific)
    : corpus_(corpus),
      doc_base_(std::move(doc_base)),
      bits_(std::move(bits)),
      count_(count),
      tag_counts_(std::move(tag_counts)),
      most_specific_(std::move(most_specific)) {
  const size_t n = most_specific_.size();
  tree_.resize(2 * n);
  for (size_t i = 0; i < n; ++i) tree_[n + i] = most_specific_[i].score;
  for (size_t i = n; i-- > 1;) {
    tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
  }
}

double ContainsResult::BestScoreWithin(NodeRef context) const {
  if (most_specific_.empty()) return 0.0;
  const NodeSpan& ctx = corpus_->span(context);
  size_t lo = LowerBoundScored(most_specific_, context);
  // Entries in the subtree: same doc, start < ctx.end. Since entries are
  // in document order and starts are monotone within a doc, the run is
  // contiguous; find its end by binary search.
  auto it = std::partition_point(
      most_specific_.begin() + static_cast<ptrdiff_t>(lo),
      most_specific_.end(), [&](const ScoredNode& s) {
        return s.node.doc == context.doc &&
               corpus_->span(s.node).start < ctx.end;
      });
  size_t hi = static_cast<size_t>(it - most_specific_.begin());
  if (lo >= hi) return 0.0;
  // Range max over the segment tree's leaves [lo, hi).
  double best = -std::numeric_limits<double>::infinity();
  const size_t n = most_specific_.size();
  for (lo += n, hi += n; lo < hi; lo >>= 1, hi >>= 1) {
    if (lo & 1) best = std::max(best, tree_[lo++]);
    if (hi & 1) best = std::max(best, tree_[--hi]);
  }
  return best;
}

size_t ContainsResult::ApproxBytes() const {
  return sizeof(ContainsResult) + bits_.capacity() * sizeof(uint64_t) +
         tag_counts_.capacity() * sizeof(size_t) +
         most_specific_.capacity() * sizeof(ScoredNode) +
         tree_.capacity() * sizeof(double);
}

IrEngine::IrEngine(const Corpus* corpus, TokenizerOptions opts)
    : corpus_(corpus),
      doc_base_(DocBase(*corpus)),
      index_(corpus, opts),
      cache_(kDefaultCacheBudgetBytes) {}

IrEngine::IrEngine(const Corpus* corpus, TokenizerOptions opts,
                   std::shared_ptr<const PostingSource> source)
    : corpus_(corpus),
      doc_base_(DocBase(*corpus)),
      index_(corpus, opts, std::move(source)),
      cache_(kDefaultCacheBudgetBytes) {}

std::shared_ptr<const ContainsResult> IrEngine::Evaluate(const FtExpr& expr) {
  static Counter* m_calls =
      MetricsRegistry::Global().counter("ir.evaluate_calls");
  static Counter* m_hits = MetricsRegistry::Global().counter("ir.cache_hits");
  static Counter* m_satisfying =
      MetricsRegistry::Global().counter("ir.satisfying_nodes");
  m_calls->Inc();
  const std::string key = expr.ToString();
  // One lock over lookup-compute-insert: concurrent workers asking for
  // the same uncached expression would otherwise compute it twice and
  // race the insert. First-time evaluation serializing is acceptable —
  // every later call is a cheap hit under the lock.
  MutexLock lock(cache_mu_);
  if (std::shared_ptr<const ContainsResult> hit = cache_.Get(key)) {
    m_hits->Inc();
    return hit;
  }

  std::vector<uint64_t> bits = SatisfyingSet(expr);

  // One ordered scan of the set bits counts them, per tag too, and keeps
  // the most-specific ones: a node is most-specific unless the next set
  // bit (its first descendant in pre-order, if any) is inside its
  // interval.
  const std::vector<uint64_t>& base = *doc_base_;
  size_t count = 0;
  std::vector<size_t> tag_counts;
  std::vector<ScoredNode> specific;
  const Document* doc = nullptr;
  DocId doc_id = 0;
  NodeRef prev;
  uint32_t prev_end = 0;
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      const uint64_t bit =
          w * 64 + static_cast<uint64_t>(std::countr_zero(word));
      if (doc == nullptr || bit >= base[doc_id + 1]) {
        while (bit >= base[doc_id + 1]) ++doc_id;
        doc = &corpus_->doc(doc_id);
      }
      const NodeId node = static_cast<NodeId>(bit - base[doc_id]);
      const TagId tag = doc->tag(node);
      if (tag >= tag_counts.size()) tag_counts.resize(tag + size_t{1}, 0);
      ++tag_counts[tag];
      const NodeSpan& span = doc->span(node);
      if (count > 0 && !(prev.doc == doc_id && span.start < prev_end)) {
        specific.push_back(ScoredNode{prev, 0.0});
      }
      prev = NodeRef{doc_id, node};
      prev_end = span.end;
      ++count;
    }
  }
  if (count > 0) specific.push_back(ScoredNode{prev, 0.0});
  m_satisfying->Inc(count);

  // Score most-specific elements: sum over the expression's positive
  // terms of subtree tf * idf, then normalize the batch to [0, 1]. Terms
  // are folded into every node's score in expression order.
  for (const std::string& t : expr.PositiveTerms()) AddTermScores(t, &specific);
  double max_score = 0.0;
  for (const ScoredNode& s : specific) max_score = std::max(max_score, s.score);
  if (max_score > 0.0) {
    for (ScoredNode& s : specific) s.score /= max_score;
  } else {
    // Pure-negation expressions carry no positive evidence; give matches
    // a uniform nominal score.
    for (ScoredNode& s : specific) s.score = 1.0;
  }

  auto result = std::make_shared<const ContainsResult>(
      corpus_, doc_base_, std::move(bits), count, std::move(tag_counts),
      std::move(specific));
  cache_.Put(key, result, result->ApproxBytes());
  static Counter* m_evictions =
      MetricsRegistry::Global().counter("ir.cache_evictions");
  static Gauge* g_bytes = MetricsRegistry::Global().gauge("ir.cache_bytes");
  static Gauge* g_entries =
      MetricsRegistry::Global().gauge("ir.cache_entries");
  const uint64_t ev = cache_.evictions();
  if (ev > exported_evictions_) {
    m_evictions->Inc(ev - exported_evictions_);
    exported_evictions_ = ev;
  }
  g_bytes->Set(static_cast<int64_t>(cache_.bytes()));
  g_entries->Set(static_cast<int64_t>(cache_.size()));
  return result;
}

IrEngine::CacheStats IrEngine::GetCacheStats() const {
  MutexLock lock(cache_mu_);
  CacheStats s;
  s.evictions = cache_.evictions();
  s.entries = cache_.size();
  s.bytes = cache_.bytes();
  s.budget = cache_.budget();
  return s;
}

std::vector<uint64_t> IrEngine::SatisfyingSet(const FtExpr& expr) const {
  const std::vector<uint64_t>& base = *doc_base_;
  switch (expr.kind()) {
    case FtKind::kTerm:
    case FtKind::kPhrase:
    case FtKind::kNear: {
      // Mark each match, then its ancestors up to the first one already
      // marked: every node above that one is marked too.
      std::vector<uint64_t> bits((base.back() + 63) / 64, 0);
      const Document* doc = nullptr;
      DocId doc_id = 0;
      for (const NodeRef ref : DirectMatches(expr)) {
        if (doc == nullptr || ref.doc != doc_id) {
          doc = &corpus_->doc(ref.doc);
          doc_id = ref.doc;
        }
        // A document that failed to decode is empty: its postings match
        // nothing.
        if (ref.node >= doc->size()) continue;
        for (NodeId p = ref.node; p != kInvalidNode; p = doc->span(p).parent) {
          const uint64_t bit = base[doc_id] + p;
          const uint64_t mask = uint64_t{1} << (bit & 63);
          if (bits[bit >> 6] & mask) break;
          bits[bit >> 6] |= mask;
        }
      }
      return bits;
    }
    case FtKind::kAnd:
    case FtKind::kOr: {
      std::vector<uint64_t> bits = SatisfyingSet(expr.children()[0]);
      const std::vector<uint64_t> other = SatisfyingSet(expr.children()[1]);
      const bool is_and = expr.kind() == FtKind::kAnd;
      for (size_t w = 0; w < bits.size(); ++w) {
        bits[w] = is_and ? bits[w] & other[w] : bits[w] | other[w];
      }
      return bits;
    }
    case FtKind::kNot: {
      std::vector<uint64_t> bits = SatisfyingSet(expr.children()[0]);
      for (uint64_t& word : bits) word = ~word;
      // The complement covers decoded nodes only: clear the padding past
      // the last node and every node of a document that failed to decode
      // (and is empty). This decodes every document.
      auto clear = [&](uint64_t lo, uint64_t hi) {
        for (uint64_t bit = lo; bit < hi; ++bit) {
          bits[bit >> 6] &= ~(uint64_t{1} << (bit & 63));
        }
      };
      clear(base.back(), bits.size() * 64);
      for (DocId d = 0; d < corpus_->size(); ++d) {
        clear(base[d] + corpus_->doc(d).size(), base[d + 1]);
      }
      return bits;
    }
  }
  return {};
}

std::vector<NodeRef> IrEngine::DirectMatches(const FtExpr& expr) const {
  static Counter* m_probes =
      MetricsRegistry::Global().counter("ir.posting_probes");
  static Counter* m_scanned =
      MetricsRegistry::Global().counter("ir.postings_scanned");
  m_probes->Inc();
  std::vector<NodeRef> out;
  if (expr.kind() == FtKind::kTerm) {
    if (expr.term().empty()) return out;  // normalized-away stopword
    const PostingList* list = index_.Find(expr.term());
    if (list == nullptr) return out;
    m_scanned->Inc(list->postings.size());
    out.reserve(list->postings.size());
    for (const Posting& p : list->postings) out.push_back(p.node);
    return out;
  }
  // Phrase / proximity: intersect posting lists, then verify positions
  // within each candidate element.
  const std::vector<std::string>& words = expr.phrase();
  if (words.empty()) return out;
  std::vector<const PostingList*> lists;
  for (const std::string& w : words) {
    const PostingList* list = index_.Find(w);
    if (list == nullptr) return out;
    lists.push_back(list);
  }
  m_scanned->Inc(lists[0]->postings.size());
  // Walk the first list; probe the others.
  std::vector<const Posting*> entry(words.size());
  for (const Posting& first : lists[0]->postings) {
    entry[0] = &first;
    bool all = true;
    for (size_t i = 1; i < lists.size(); ++i) {
      const auto& ps = lists[i]->postings;
      auto it = std::lower_bound(
          ps.begin(), ps.end(), first.node,
          [](const Posting& p, const NodeRef& r) { return p.node < r; });
      if (it == ps.end() || !(it->node == first.node)) {
        all = false;
        break;
      }
      entry[i] = &*it;
    }
    if (!all) continue;
    const bool hit = expr.kind() == FtKind::kPhrase
                         ? PhraseAt(entry)
                         : NearAt(entry, expr.window());
    if (hit) out.push_back(first.node);
  }
  return out;
}

bool IrEngine::PhraseAt(const std::vector<const Posting*>& entry) {
  // Check for positions p, p+1, ..., p+k-1.
  for (uint32_t pos : entry[0]->positions) {
    bool run = true;
    for (size_t i = 1; i < entry.size(); ++i) {
      const auto& v = entry[i]->positions;
      if (!std::binary_search(v.begin(), v.end(),
                              pos + static_cast<uint32_t>(i))) {
        run = false;
        break;
      }
    }
    if (run) return true;
  }
  return false;
}

bool IrEngine::NearAt(const std::vector<const Posting*>& entry,
                      uint32_t window) {
  // Merge all occurrences, then slide a token window and check that some
  // window covers every word at least once.
  std::vector<std::pair<uint32_t, size_t>> occ;  // (position, word index)
  for (size_t i = 0; i < entry.size(); ++i) {
    for (uint32_t pos : entry[i]->positions) occ.emplace_back(pos, i);
  }
  std::sort(occ.begin(), occ.end());
  std::vector<size_t> in_window(entry.size(), 0);
  size_t covered = 0;
  size_t left = 0;
  for (size_t right = 0; right < occ.size(); ++right) {
    if (in_window[occ[right].second]++ == 0) ++covered;
    while (occ[right].first - occ[left].first > window) {
      if (--in_window[occ[left].second] == 0) --covered;
      ++left;
    }
    if (covered == entry.size()) return true;
  }
  return false;
}

void IrEngine::AddTermScores(const std::string& term,
                             std::vector<ScoredNode>* specific) const {
  const PostingList* list = index_.Find(term);
  if (list == nullptr || specific->empty()) return;
  const double idf = index_.Idf(term);
  // Most-specific nodes are sorted and pairwise disjoint, so one forward
  // walk over the postings visits each node's subtree run in turn.
  const std::vector<Posting>& postings = list->postings;
  size_t j = 0;
  for (ScoredNode& s : *specific) {
    while (j < postings.size() && postings[j].node < s.node) ++j;
    if (j == postings.size()) break;
    const Document& doc = corpus_->doc(s.node.doc);
    const uint32_t end = doc.span(s.node.node).end;
    uint64_t tf = 0;
    for (; j < postings.size() && postings[j].node.doc == s.node.doc &&
           doc.span(postings[j].node.node).start < end;
         ++j) {
      tf += postings[j].tf;
    }
    if (tf > 0) s.score += (1.0 + std::log(static_cast<double>(tf))) * idf;
  }
}

}  // namespace flexpath
