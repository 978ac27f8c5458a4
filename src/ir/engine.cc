#include "ir/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>

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

}  // namespace

ContainsResult::ContainsResult(const Corpus* corpus,
                               std::vector<NodeRef> satisfying,
                               std::vector<ScoredNode> most_specific)
    : corpus_(corpus),
      satisfying_(std::move(satisfying)),
      most_specific_(std::move(most_specific)) {
  // Build the sparse table for range-max over most-specific scores.
  const size_t n = most_specific_.size();
  if (n == 0) return;
  rmq_.emplace_back(n);
  for (size_t i = 0; i < n; ++i) rmq_[0][i] = most_specific_[i].score;
  for (size_t len = 2; len <= n; len *= 2) {
    const std::vector<double>& prev = rmq_.back();
    std::vector<double> cur(n - len + 1);
    for (size_t i = 0; i + len <= n; ++i) {
      cur[i] = std::max(prev[i], prev[i + len / 2]);
    }
    rmq_.push_back(std::move(cur));
  }
}

bool ContainsResult::Satisfies(NodeRef context) const {
  return std::binary_search(satisfying_.begin(), satisfying_.end(), context);
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
  // Range max via the sparse table.
  size_t len = hi - lo;
  size_t level = 0;
  while ((size_t{2} << level) <= len) ++level;
  size_t window = size_t{1} << level;
  return std::max(rmq_[level][lo], rmq_[level][hi - window]);
}

size_t ContainsResult::CountWithTag(TagId tag) const {
  MutexLock lock(tag_counts_mu_);
  auto it = tag_counts_.find(tag);
  if (it != tag_counts_.end()) return it->second;
  size_t count = 0;
  for (NodeRef ref : satisfying_) {
    if (corpus_->node(ref).tag == tag) ++count;
  }
  tag_counts_.emplace(tag, count);
  return count;
}

size_t ContainsResult::ApproxBytes() const {
  size_t bytes = sizeof(ContainsResult);
  bytes += satisfying_.capacity() * sizeof(NodeRef);
  bytes += most_specific_.capacity() * sizeof(ScoredNode);
  for (const std::vector<double>& level : rmq_) {
    bytes += level.capacity() * sizeof(double);
  }
  return bytes;
}

IrEngine::IrEngine(const Corpus* corpus, TokenizerOptions opts)
    : corpus_(corpus), index_(corpus, opts), cache_(kDefaultCacheBudgetBytes) {}

IrEngine::IrEngine(const Corpus* corpus, TokenizerOptions opts,
                   std::shared_ptr<const PostingSource> source)
    : corpus_(corpus),
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

  std::vector<NodeRef> satisfying = SatisfyingSet(expr);
  m_satisfying->Inc(satisfying.size());

  // Most-specific = entries whose immediate successor (the first
  // descendant in pre-order, if any) is not inside their interval.
  std::vector<ScoredNode> specific;
  for (size_t i = 0; i < satisfying.size(); ++i) {
    const NodeRef ref = satisfying[i];
    if (i + 1 < satisfying.size()) {
      const NodeRef next = satisfying[i + 1];
      if (next.doc == ref.doc &&
          corpus_->span(next).start < corpus_->span(ref).end) {
        continue;  // has a satisfying descendant
      }
    }
    specific.push_back(ScoredNode{ref, 0.0});
  }

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
      corpus_, std::move(satisfying), std::move(specific));
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

std::vector<NodeRef> IrEngine::SatisfyingSet(const FtExpr& expr) const {
  switch (expr.kind()) {
    case FtKind::kTerm:
    case FtKind::kPhrase:
    case FtKind::kNear:
      return AncestorClosure(DirectMatches(expr));
    case FtKind::kAnd: {
      std::vector<NodeRef> a = SatisfyingSet(expr.children()[0]);
      std::vector<NodeRef> b = SatisfyingSet(expr.children()[1]);
      std::vector<NodeRef> out;
      std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                            std::back_inserter(out));
      return out;
    }
    case FtKind::kOr: {
      std::vector<NodeRef> a = SatisfyingSet(expr.children()[0]);
      std::vector<NodeRef> b = SatisfyingSet(expr.children()[1]);
      std::vector<NodeRef> out;
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(out));
      return out;
    }
    case FtKind::kNot: {
      std::vector<NodeRef> child = SatisfyingSet(expr.children()[0]);
      std::vector<NodeRef> all = Universe();
      std::vector<NodeRef> out;
      std::set_difference(all.begin(), all.end(), child.begin(), child.end(),
                          std::back_inserter(out));
      return out;
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

std::vector<NodeRef> IrEngine::AncestorClosure(
    const std::vector<NodeRef>& direct) const {
  assert(std::adjacent_find(direct.begin(), direct.end(),
                            std::greater_equal<NodeRef>()) == direct.end());
  // Stack merge: `path` is the root path of the last match, root first.
  // Each match pops the path down to its deepest ancestor-or-self there,
  // then pushes the ancestors it adds. A pushed node is not an ancestor
  // of the previous match, so in pre-order it follows everything already
  // emitted: the output comes out sorted and unique with no sort.
  std::vector<NodeRef> out;
  out.reserve(direct.size());
  std::vector<NodeId> path;
  std::vector<NodeId> fresh;
  const Document* doc = nullptr;
  DocId doc_id = 0;
  for (const NodeRef ref : direct) {
    if (doc == nullptr || ref.doc != doc_id) {
      doc = &corpus_->doc(ref.doc);
      doc_id = ref.doc;
      path.clear();
    }
    // A document that failed to decode is empty: its postings match
    // nothing.
    if (ref.node >= doc->size()) continue;
    while (!path.empty() && !doc->IsAncestor(path.back(), ref.node)) {
      path.pop_back();
    }
    const NodeId stop = path.empty() ? kInvalidNode : path.back();
    fresh.clear();
    // Readers guarantee that intervals and parent links agree, so the
    // walk meets `stop`; the root check is only a backstop.
    for (NodeId p = ref.node; p != stop && p != kInvalidNode;
         p = doc->span(p).parent) {
      fresh.push_back(p);
    }
    for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
      out.push_back(NodeRef{doc_id, *it});
      path.push_back(*it);
    }
  }
  return out;
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

std::vector<NodeRef> IrEngine::Universe() const {
  std::vector<NodeRef> out;
  out.reserve(corpus_->TotalNodes());
  for (DocId d = 0; d < corpus_->size(); ++d) {
    // The decoded node count, so a document that failed to decode (and
    // is empty) adds nothing. The most-specific pass reads the spans of
    // these nodes, which decodes their documents anyway.
    const size_t n = corpus_->doc(d).size();
    for (NodeId i = 0; i < n; ++i) out.push_back(NodeRef{d, i});
  }
  return out;
}

}  // namespace flexpath
