#include "ir/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log.h"

namespace flexpath {

InvertedIndex::InvertedIndex(const Corpus* corpus, TokenizerOptions opts)
    : corpus_(corpus), opts_(opts) {
  total_elements_ = corpus_->TotalNodes();
  for (DocId d = 0; d < corpus_->size(); ++d) {
    const Document& doc = corpus_->doc(d);
    for (NodeId n = 0; n < doc.size(); ++n) {
      const Element& e = doc.node(n);
      if (e.text.empty()) continue;
      for (const PositionedToken& token :
           TokenizeWithPositions(e.text, opts_)) {
        PostingList& list = index_[token.text];
        if (!list.postings.empty() &&
            list.postings.back().node == NodeRef{d, n}) {
          Posting& p = list.postings.back();
          ++p.tf;
          p.positions.push_back(token.position);
        } else {
          Posting p;
          p.node = NodeRef{d, n};
          p.tf = 1;
          p.positions.push_back(token.position);
          list.postings.push_back(std::move(p));
        }
      }
    }
  }
  // Documents are scanned in (doc, node) order, so each posting list is
  // already sorted by NodeRef. Build the tf prefix sums.
  for (auto& [term, list] : index_) {
    list.tf_prefix.resize(list.postings.size() + 1, 0);
    for (size_t i = 0; i < list.postings.size(); ++i) {
      list.tf_prefix[i + 1] = list.tf_prefix[i] + list.postings[i].tf;
    }
  }
}

InvertedIndex::InvertedIndex(const Corpus* corpus, TokenizerOptions opts,
                             std::shared_ptr<const PostingSource> source)
    : corpus_(corpus),
      opts_(opts),
      total_elements_(corpus->TotalNodes()),  // Directory-served; no decode.
      source_(std::move(source)) {}

std::shared_ptr<const PostingList> InvertedIndex::Find(
    const std::string& term) const {
  if (source_ != nullptr) return source_->FindPostings(term);
  auto it = index_.find(term);
  if (it == index_.end()) return nullptr;
  // Non-owning handle: the index owns the list for its whole lifetime,
  // so the control block is empty and the deleter a no-op.
  return std::shared_ptr<const PostingList>(std::shared_ptr<const void>(),
                                            &it->second);
}

double InvertedIndex::Idf(const std::string& term) const {
  double df = 0.0;
  if (source_ != nullptr) {
    uint32_t df32 = 0;
    uint64_t total_tf = 0;
    if (source_->TermInfo(term, &df32, &total_tf)) {
      df = static_cast<double>(df32);
    }
  } else {
    auto it = index_.find(term);
    if (it != index_.end()) {
      df = static_cast<double>(it->second.postings.size());
    }
  }
  return std::log(1.0 + static_cast<double>(total_elements_) / (1.0 + df));
}

size_t InvertedIndex::vocabulary_size() const {
  return source_ != nullptr ? source_->TermCount() : index_.size();
}

uint64_t InvertedIndex::SubtreeTermFrequency(const std::string& term,
                                             NodeRef context) const {
  if (source_ != nullptr) {
    // Key-range formulation of the in-memory search below. Subtree
    // postings are exactly the keys in [context, first node of the same
    // doc with start >= ctx.end); since start is monotone in NodeId the
    // boundary node binary-searches over the (materialized) context doc.
    const Document& doc = corpus_->doc(context.doc);
    const NodeSpan& ctx = doc.span(context.node);
    NodeId lo_node = context.node;
    NodeId hi_node = static_cast<NodeId>(doc.size());
    while (lo_node < hi_node) {
      const NodeId mid = lo_node + (hi_node - lo_node) / 2;
      if (doc.span(mid).start < ctx.end) {
        lo_node = mid + 1;
      } else {
        hi_node = mid;
      }
    }
    const uint64_t lo_key =
        (static_cast<uint64_t>(context.doc) << 32) | context.node;
    const uint64_t hi_key =
        lo_node < doc.size()
            ? (static_cast<uint64_t>(context.doc) << 32) | lo_node
            : (static_cast<uint64_t>(context.doc) + 1) << 32;
    Result<uint64_t> sum = source_->RangeTermFrequency(term, lo_key, hi_key);
    if (!sum.ok()) {
      FLEXPATH_LOG_ERROR("storage", "range term frequency failed",
                         {"term", term},
                         {"error", sum.status().ToString()});
      return 0;
    }
    return sum.value();
  }
  auto it = index_.find(term);
  if (it == index_.end()) return 0;
  const PostingList* list = &it->second;
  const NodeSpan& ctx = corpus_->span(context);
  // Subtree postings form a contiguous run: same doc, start in
  // [ctx.start, ctx.end). Binary-search the run boundaries.
  auto lower = std::lower_bound(
      list->postings.begin(), list->postings.end(), context,
      [](const Posting& p, const NodeRef& c) { return p.node < c; });
  // Postings inside the subtree are exactly those in the same doc with
  // start < ctx.end (start is monotone in NodeId), so the end of the run
  // can be binary-searched as well.
  auto upper = std::partition_point(
      lower, list->postings.end(), [&](const Posting& p) {
        return p.node.doc == context.doc &&
               corpus_->span(p.node).start < ctx.end;
      });
  size_t lo = static_cast<size_t>(lower - list->postings.begin());
  size_t hi = static_cast<size_t>(upper - list->postings.begin());
  return list->tf_prefix[hi] - list->tf_prefix[lo];
}

void InvertedIndex::ForEachTerm(
    const std::function<void(const std::string&, const PostingList&)>& fn)
    const {
  for (const auto& [term, list] : index_) fn(term, list);
}

}  // namespace flexpath
