#ifndef FLEXPATH_STATS_ELEMENT_INDEX_H_
#define FLEXPATH_STATS_ELEMENT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "xml/corpus.h"
#include "xml/tag_dict.h"
#include "xml/type_hierarchy.h"

namespace flexpath {

/// A scan list handed out by ElementIndex::Scan. Behaves like a const
/// std::vector<NodeRef>& (iteration, size, indexing, implicit conversion),
/// but additionally pins the list: when the list came from the bounded
/// merged-scan cache it holds a shared reference, so a concurrent LRU
/// eviction can never invalidate it.
///
/// Lifetime rule: bind the *handle* — `const auto scan = index.Scan(t);`
/// or iterate the temporary directly (`for (NodeRef r : index.Scan(t))`,
/// where the range-for extends the handle's lifetime). Do NOT bind a
/// reference to the converted vector of a temporary handle
/// (`const std::vector<NodeRef>& v = index.Scan(t);` dangles once the
/// handle dies).
class ScanHandle {
 public:
  explicit ScanHandle(const std::vector<NodeRef>* list) : list_(list) {}
  explicit ScanHandle(std::shared_ptr<const std::vector<NodeRef>> owned)
      : owner_(std::move(owned)), list_(owner_.get()) {}

  const std::vector<NodeRef>& operator*() const { return *list_; }
  const std::vector<NodeRef>* operator->() const { return list_; }
  operator const std::vector<NodeRef>&() const { return *list_; }

  std::vector<NodeRef>::const_iterator begin() const {
    return list_->begin();
  }
  std::vector<NodeRef>::const_iterator end() const { return list_->end(); }
  size_t size() const { return list_->size(); }
  bool empty() const { return list_->empty(); }
  NodeRef operator[](size_t i) const { return (*list_)[i]; }

 private:
  std::shared_ptr<const std::vector<NodeRef>> owner_;  ///< Null: unowned.
  const std::vector<NodeRef>* list_;
};

/// On-demand provider of per-tag element tables, already in global
/// document order. A packed corpus (storage/reader.h) implements this
/// over its block-compressed element section so ElementIndex can serve
/// Scan() without an index-building corpus pass; lists come back as
/// shared_ptrs pinned by the reader's buffer pool, which slots straight
/// into ScanHandle's pinning contract. Declared here so stats/ stays
/// independent of storage/.
class ElementTableSource {
 public:
  virtual ~ElementTableSource() = default;

  /// #(t) — list length without decoding the list.
  virtual size_t TagListCount(TagId tag) const = 0;

  /// The full list for `tag`, decoded (or served from the buffer pool).
  /// Never null; unknown tags yield an empty list.
  virtual std::shared_ptr<const std::vector<NodeRef>> TagList(
      TagId tag) const = 0;
};

/// Tag-based access path: for each tag, the list of elements with that tag
/// in global document order — i.e. sorted by (doc, start), which is the
/// input format required by the structural join of Al-Khalifa et al. [1].
///
/// With a TypeHierarchy attached (the tag-generalization extension of
/// Section 3.4), Scan(t) returns elements of t *or any transitive
/// subtype*, so a query node constrained to a supertype matches all of
/// its subtypes throughout the engine. Merged supertype scans are built
/// lazily and kept in a byte-budgeted LRU (they used to accumulate
/// without limit); evicted lists stay valid through the ScanHandle that
/// pinned them.
class ElementIndex {
 public:
  /// Default byte budget of the merged-scan cache.
  static constexpr size_t kDefaultMergedBudgetBytes = size_t{64} << 20;

  /// Builds the index in one corpus pass. `corpus` (and `hierarchy` if
  /// non-null) must outlive the index and not change afterwards.
  explicit ElementIndex(const Corpus* corpus,
                        const TypeHierarchy* hierarchy = nullptr);

  /// Builds a *packed* index: no corpus pass, no in-memory by-tag lists.
  /// Scans are answered by `source` (the packed reader's element section)
  /// and Count() by its directory — this is what makes OpenPacked O(1)
  /// in corpus size. Merged supertype scans still work and still land in
  /// the byte-budgeted merged cache.
  ElementIndex(const Corpus* corpus, const TypeHierarchy* hierarchy,
               std::shared_ptr<const ElementTableSource> source);

  ElementIndex(const ElementIndex&) = delete;
  ElementIndex& operator=(const ElementIndex&) = delete;

  /// Elements with tag `tag` (or a subtype), in document order. Empty
  /// list for unknown tags (including kInvalidTag). Safe to call from
  /// concurrent query workers; the returned handle keeps its list valid
  /// for the handle's lifetime (see ScanHandle).
  ScanHandle Scan(TagId tag) const;

  /// Number of elements the scan returns — #(t), subtypes included. In
  /// packed mode a plain (non-supertype) count comes from the directory
  /// without decoding the list.
  size_t Count(TagId tag) const;

  /// Adjusts the merged-scan cache budget, evicting immediately if over.
  void SetMergedScanBudget(size_t budget_bytes);

  struct MergedCacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
    size_t budget = 0;
  };
  MergedCacheStats GetMergedCacheStats() const;

  const Corpus& corpus() const { return *corpus_; }
  const TypeHierarchy* hierarchy() const { return hierarchy_; }

 private:
  const Corpus* corpus_;
  const TypeHierarchy* hierarchy_;
  std::vector<std::vector<NodeRef>> by_tag_;  ///< Indexed by TagId.
  /// Packed mode: lists come from here instead of by_tag_ (which stays
  /// empty). Shared with the StorageReader that owns the mapping.
  std::shared_ptr<const ElementTableSource> table_source_;
  /// Lazily merged supertype scans (only when hierarchy_ is set),
  /// byte-bounded; entries are shared so eviction never dangles a
  /// handed-out handle. Sizes are exported as the
  /// stats.element_index.merged_* gauges.
  mutable Mutex merged_mu_;
  mutable LruByteCache<TagId, std::vector<NodeRef>> merged_
      GUARDED_BY(merged_mu_);
  mutable uint64_t merged_hits_ GUARDED_BY(merged_mu_) = 0;
  mutable uint64_t merged_misses_ GUARDED_BY(merged_mu_) = 0;
  std::vector<NodeRef> empty_;
};

}  // namespace flexpath

#endif  // FLEXPATH_STATS_ELEMENT_INDEX_H_
