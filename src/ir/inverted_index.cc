#include "ir/inverted_index.h"

#include <cmath>
#include <utility>

namespace flexpath {

InvertedIndex::InvertedIndex(const Corpus* corpus, TokenizerOptions opts)
    : corpus_(corpus), opts_(opts) {
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
      source_(std::move(source)) {}

const PostingList* InvertedIndex::Find(const std::string& term) const {
  MutexLock lock(mu_);
  auto it = index_.find(term);
  if (it != index_.end()) return &it->second;
  if (source_ == nullptr) return nullptr;
  std::optional<PostingList> list = source_->FindPostings(term);
  if (!list.has_value()) return nullptr;
  return &index_.emplace(term, std::move(*list)).first->second;
}

double InvertedIndex::Idf(const std::string& term) const {
  double df = 0.0;
  if (source_ != nullptr) {
    uint32_t df32 = 0;
    if (source_->TermInfo(term, &df32)) {
      df = static_cast<double>(df32);
    }
  } else if (const PostingList* list = Find(term)) {
    df = static_cast<double>(list->postings.size());
  }
  // N, the corpus's element count, is directory-served: no decode.
  const double n = static_cast<double>(corpus_->TotalNodes());
  return std::log(1.0 + n / (1.0 + df));
}

void InvertedIndex::ForEachTerm(
    const std::function<void(const std::string&, const PostingList&)>& fn)
    const {
  // Lists never move or change once inserted, so `fn` can run unlocked
  // (and may itself call Find).
  std::vector<std::pair<const std::string*, const PostingList*>> entries;
  {
    MutexLock lock(mu_);
    entries.reserve(index_.size());
    for (const auto& [term, list] : index_) entries.emplace_back(&term, &list);
  }
  for (const auto& [term, list] : entries) fn(*term, *list);
}

}  // namespace flexpath
