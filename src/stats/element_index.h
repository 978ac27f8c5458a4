#ifndef FLEXPATH_STATS_ELEMENT_INDEX_H_
#define FLEXPATH_STATS_ELEMENT_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "xml/corpus.h"
#include "xml/tag_dict.h"
#include "xml/type_hierarchy.h"

namespace flexpath {

/// On-demand provider of per-tag element tables, already in global
/// document order. A packed corpus (storage/reader.h) implements this
/// over its delta-coded element section so ElementIndex can serve Scan()
/// without an index-building corpus pass. Declared here so stats/ stays
/// independent of storage/.
class ElementTableSource {
 public:
  virtual ~ElementTableSource() = default;

  /// The full list for `tag`, decoded afresh on every call (ElementIndex
  /// keeps what it decodes). Unknown tags yield an empty list.
  virtual std::vector<NodeRef> TagList(TagId tag) const = 0;
};

/// Tag-based access path: for each tag, the list of elements with that tag
/// in global document order — i.e. sorted by (doc, start), which is the
/// input format required by the structural join of Al-Khalifa et al. [1].
///
/// With a TypeHierarchy attached (the tag-generalization extension of
/// Section 3.4), Scan(t) returns elements of t *or any transitive
/// subtype*, so a query node constrained to a supertype matches all of
/// its subtypes throughout the engine. Merged supertype scans, like a
/// packed index's decoded lists, are built on first Scan and kept for
/// the index's lifetime with no budget: there is at most one of each per
/// tag, so what is kept is bounded by the corpus's own element lists.
class ElementIndex {
 public:
  /// Builds the index in one corpus pass. `corpus` (and `hierarchy` if
  /// non-null) must outlive the index and not change afterwards.
  explicit ElementIndex(const Corpus* corpus,
                        const TypeHierarchy* hierarchy = nullptr);

  /// Builds a *packed* index: no corpus pass, no in-memory by-tag lists.
  /// Scans are answered by `source` (the packed reader's element
  /// section) — this is what makes OpenPacked O(1) in corpus size. Each
  /// tag's list decodes once, on its first Scan.
  ElementIndex(const Corpus* corpus, const TypeHierarchy* hierarchy,
               std::shared_ptr<const ElementTableSource> source);

  ElementIndex(const ElementIndex&) = delete;
  ElementIndex& operator=(const ElementIndex&) = delete;

  /// Elements with tag `tag` (or a subtype), in document order. Empty
  /// list for unknown tags (including kInvalidTag). Safe to call from
  /// concurrent query workers; the list lives as long as the index.
  const std::vector<NodeRef>& Scan(TagId tag) const;

  const Corpus& corpus() const { return *corpus_; }
  const TypeHierarchy* hierarchy() const { return hierarchy_; }

 private:
  /// `tag`'s own elements, without subtypes: by_tag_ in memory, the
  /// first decode of the packed list otherwise.
  const std::vector<NodeRef>& OwnListLocked(TagId tag) const REQUIRES(mu_);

  const Corpus* corpus_;
  const TypeHierarchy* hierarchy_;
  std::vector<std::vector<NodeRef>> by_tag_;  ///< Indexed by TagId.
  /// Packed mode: lists come from here instead of by_tag_ (which stays
  /// empty). Shared with the StorageReader that owns the mapping.
  std::shared_ptr<const ElementTableSource> table_source_;
  /// Lists filled on first Scan: packed per-tag lists (own elements) and
  /// merged supertype scans. Never erased or modified once filled, and
  /// node-based, so a reference Scan hands out stays valid while other
  /// tags are inserted.
  mutable Mutex mu_;
  mutable std::unordered_map<TagId, std::vector<NodeRef>> decoded_
      GUARDED_BY(mu_);
  mutable std::unordered_map<TagId, std::vector<NodeRef>> merged_
      GUARDED_BY(mu_);
  std::vector<NodeRef> empty_;
};

}  // namespace flexpath

#endif  // FLEXPATH_STATS_ELEMENT_INDEX_H_
