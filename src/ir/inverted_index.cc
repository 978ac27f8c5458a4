#include "ir/inverted_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace flexpath {

InvertedIndex::InvertedIndex(const Corpus* corpus, TokenizerOptions opts)
    : corpus_(corpus), opts_(opts) {
  total_elements_ = corpus_->TotalNodes();
  for (DocId d = 0; d < corpus_->size(); ++d) {
    const Document& doc = corpus_->DocWithContent(d);
    for (NodeId n = 0; n < doc.size(); ++n) {
      const std::string& text = doc.content(n).text;
      if (text.empty()) continue;
      for (const PositionedToken& token :
           TokenizeWithPositions(text, opts_)) {
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
  // already sorted by NodeRef.
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
  const std::shared_ptr<const PostingList> list = Find(term);
  if (list == nullptr) return 0;
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
  uint64_t sum = 0;
  for (auto p = lower; p != upper; ++p) sum += p->tf;
  return sum;
}

void InvertedIndex::ForEachTerm(
    const std::function<void(const std::string&, const PostingList&)>& fn)
    const {
  for (const auto& [term, list] : index_) fn(term, list);
}

}  // namespace flexpath
