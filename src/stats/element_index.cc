#include "stats/element_index.h"

#include <algorithm>
#include <utility>

namespace flexpath {

ElementIndex::ElementIndex(const Corpus* corpus,
                           const TypeHierarchy* hierarchy)
    : corpus_(corpus), hierarchy_(hierarchy) {
  by_tag_.resize(corpus_->tags().size());
  for (DocId d = 0; d < corpus_->size(); ++d) {
    const Document& doc = corpus_->doc(d);
    for (NodeId n = 0; n < doc.size(); ++n) {
      const TagId tag = doc.tag(n);
      if (tag < by_tag_.size()) by_tag_[tag].push_back(NodeRef{d, n});
    }
  }
}

ElementIndex::ElementIndex(const Corpus* corpus,
                           const TypeHierarchy* hierarchy,
                           std::shared_ptr<const ElementTableSource> source)
    : corpus_(corpus),
      hierarchy_(hierarchy),
      table_source_(std::move(source)) {}

const std::vector<NodeRef>& ElementIndex::OwnListLocked(TagId tag) const {
  if (table_source_ == nullptr) {
    return tag < by_tag_.size() ? by_tag_[tag] : empty_;
  }
  auto [it, fresh] = decoded_.try_emplace(tag);
  if (fresh) it->second = table_source_->TagList(tag);
  return it->second;
}

const std::vector<NodeRef>& ElementIndex::Scan(TagId tag) const {
  if (tag == kInvalidTag) return empty_;
  if (hierarchy_ != nullptr && !hierarchy_->empty()) {
    const std::vector<TagId> closure = hierarchy_->SubtypeClosure(tag);
    if (closure.size() > 1) {
      MutexLock lock(mu_);
      auto [it, fresh] = merged_.try_emplace(tag);
      if (fresh) {
        for (TagId t : closure) {
          const std::vector<NodeRef>& own = OwnListLocked(t);
          it->second.insert(it->second.end(), own.begin(), own.end());
        }
        std::sort(it->second.begin(), it->second.end());
      }
      return it->second;
    }
  }
  if (table_source_ == nullptr) {
    return tag < by_tag_.size() ? by_tag_[tag] : empty_;
  }
  MutexLock lock(mu_);
  return OwnListLocked(tag);
}

}  // namespace flexpath
