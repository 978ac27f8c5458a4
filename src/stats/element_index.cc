#include "stats/element_index.h"

#include <algorithm>
#include <utility>

#include "common/metrics.h"

namespace flexpath {

namespace {

/// Charged size of a merged scan list held by the cache.
size_t MergedBytes(const std::vector<NodeRef>& list) {
  return sizeof(std::vector<NodeRef>) + list.capacity() * sizeof(NodeRef);
}

}  // namespace

ElementIndex::ElementIndex(const Corpus* corpus,
                           const TypeHierarchy* hierarchy)
    : corpus_(corpus),
      hierarchy_(hierarchy),
      merged_(kDefaultMergedBudgetBytes) {
  by_tag_.resize(corpus_->tags().size());
  for (DocId d = 0; d < corpus_->size(); ++d) {
    const Document& doc = corpus_->doc(d);
    for (NodeId n = 0; n < doc.size(); ++n) {
      const TagId tag = doc.node(n).tag;
      if (tag < by_tag_.size()) by_tag_[tag].push_back(NodeRef{d, n});
    }
  }
}

ElementIndex::ElementIndex(const Corpus* corpus,
                           const TypeHierarchy* hierarchy,
                           std::shared_ptr<const ElementTableSource> source)
    : corpus_(corpus),
      hierarchy_(hierarchy),
      table_source_(std::move(source)),
      merged_(kDefaultMergedBudgetBytes) {}

ScanHandle ElementIndex::Scan(TagId tag) const {
  if (tag == kInvalidTag) return ScanHandle(&empty_);
  if (hierarchy_ != nullptr && !hierarchy_->empty()) {
    const std::vector<TagId> closure = hierarchy_->SubtypeClosure(tag);
    if (closure.size() > 1) {
      MutexLock lock(merged_mu_);
      if (std::shared_ptr<const std::vector<NodeRef>> hit = merged_.Get(tag)) {
        ++merged_hits_;
        return ScanHandle(std::move(hit));
      }
      ++merged_misses_;
      auto merged = std::make_shared<std::vector<NodeRef>>();
      for (TagId t : closure) {
        if (table_source_ != nullptr) {
          const std::shared_ptr<const std::vector<NodeRef>> list =
              table_source_->TagList(t);
          merged->insert(merged->end(), list->begin(), list->end());
        } else if (t < by_tag_.size()) {
          merged->insert(merged->end(), by_tag_[t].begin(),
                         by_tag_[t].end());
        }
      }
      std::sort(merged->begin(), merged->end());
      const size_t bytes = MergedBytes(*merged);
      std::shared_ptr<const std::vector<NodeRef>> owned = std::move(merged);
      merged_.Put(tag, owned, bytes);
      static Gauge* g_bytes =
          MetricsRegistry::Global().gauge("stats.element_index.merged_bytes");
      static Gauge* g_entries = MetricsRegistry::Global().gauge(
          "stats.element_index.merged_entries");
      g_bytes->Set(static_cast<int64_t>(merged_.bytes()));
      g_entries->Set(static_cast<int64_t>(merged_.size()));
      return ScanHandle(std::move(owned));
    }
  }
  if (table_source_ != nullptr) {
    return ScanHandle(table_source_->TagList(tag));
  }
  if (tag >= by_tag_.size()) return ScanHandle(&empty_);
  return ScanHandle(&by_tag_[tag]);
}

size_t ElementIndex::Count(TagId tag) const {
  if (tag == kInvalidTag) return 0;
  if (hierarchy_ != nullptr && !hierarchy_->empty() &&
      hierarchy_->SubtypeClosure(tag).size() > 1) {
    return Scan(tag).size();  // Merged supertype scan; no directory shortcut.
  }
  if (table_source_ != nullptr) return table_source_->TagListCount(tag);
  return tag < by_tag_.size() ? by_tag_[tag].size() : 0;
}

void ElementIndex::SetMergedScanBudget(size_t budget_bytes) {
  MutexLock lock(merged_mu_);
  merged_.SetBudget(budget_bytes);
}

ElementIndex::MergedCacheStats ElementIndex::GetMergedCacheStats() const {
  MutexLock lock(merged_mu_);
  MergedCacheStats s;
  s.hits = merged_hits_;
  s.misses = merged_misses_;
  s.evictions = merged_.evictions();
  s.entries = merged_.size();
  s.bytes = merged_.bytes();
  s.budget = merged_.budget();
  return s;
}

}  // namespace flexpath
