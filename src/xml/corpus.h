#ifndef FLEXPATH_XML_CORPUS_H_
#define FLEXPATH_XML_CORPUS_H_

#include <atomic>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "xml/document.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Index of a document within a Corpus.
using DocId = uint32_t;

struct NodeRef;

/// The (doc << 32) | node word of `r`: ordering these words is ordering
/// the refs.
constexpr uint64_t PackNodeRef(NodeRef r);

/// A (document, node) handle identifying one element anywhere in a corpus.
/// Orders by (doc, node) — i.e., global document order — which is the sort
/// order the structural join expects. The comparison is one 64-bit compare
/// of the packed words, which every sort and binary search over NodeRefs
/// goes through.
struct NodeRef {
  DocId doc = 0;
  NodeId node = 0;

  friend bool operator==(const NodeRef&, const NodeRef&) = default;
  friend constexpr std::strong_ordering operator<=>(NodeRef a, NodeRef b) {
    return PackNodeRef(a) <=> PackNodeRef(b);
  }
};

constexpr uint64_t PackNodeRef(NodeRef r) {
  return (static_cast<uint64_t>(r.doc) << 32) | r.node;
}

/// Hash functor for NodeRef keys (answer sets, cache maps). The single
/// definition used throughout the engine.
struct NodeRefHash {
  size_t operator()(const NodeRef& r) const {
    return std::hash<uint64_t>()(PackNodeRef(r));
  }
};

/// Pluggable on-demand document source. A backed corpus (see
/// Corpus::AttachBacking) starts with every slot empty and decodes a
/// document's structure the first time it is touched, and its text and
/// attributes the first time something reads them — this is what makes
/// FlexPath::OpenPacked pay-per-touch instead of load-everything. The
/// packed-file implementation lives in storage/reader.h; the interface is
/// declared here so xml/ stays independent of storage/.
class CorpusBacking {
 public:
  virtual ~CorpusBacking() = default;

  /// Number of documents the backing can produce.
  virtual size_t DocCount() const = 0;

  /// Element-node count of document `id`, answered without decoding it.
  virtual size_t DocNodeCount(DocId id) const = 0;

  /// Decodes the structure of document `id`, without content. Called at
  /// most once per slot (the corpus memoizes the result); errors surface
  /// as an empty document plus a log line, since doc() cannot return a
  /// Status.
  virtual Result<Document> MaterializeDocument(DocId id) const = 0;

  /// Decodes the text and attributes of document `id`, one entry per
  /// node. Called at most once per slot, after its structure; errors
  /// surface as empty contents (every node without text or attributes)
  /// plus a log line.
  virtual Result<std::vector<NodeContent>> MaterializeContent(
      DocId id) const = 0;
};

/// A collection of XML documents sharing one tag dictionary. This is the
/// "XML database D" of the paper. Documents are immutable once added;
/// indexes (see src/ir, src/stats, src/exec) are built over a frozen
/// corpus.
///
/// Two modes: an in-memory corpus owns its documents outright (Add /
/// AddXml), while a backed corpus (AttachBacking) materializes documents
/// lazily from a CorpusBacking. In both modes doc() hands out references
/// that stay valid for the corpus lifetime — a materialized document is
/// never evicted, so downstream indexes can hold span pointers. A backed
/// doc() carries structure only; every reader of text or attributes goes
/// through DocWithContent.
class Corpus {
 public:
  Corpus() = default;
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  /// Adds an already-built document (e.g., from DocumentBuilder or the
  /// XMark generator). The document must have been built against tags()
  /// and carry its content (Document::has_content).
  /// Must not be called on a backed corpus.
  DocId Add(Document doc);

  /// Parses `xml` and adds the resulting document.
  Result<DocId> AddXml(std::string_view xml);

  /// Switches this (empty) corpus to lazy mode: `size()` becomes
  /// `backing->DocCount()`, all slots start unmaterialized, and tag
  /// names must already have been interned into tags() by the caller.
  void AttachBacking(std::shared_ptr<const CorpusBacking> backing);

  bool backed() const { return backing_ != nullptr; }

  size_t size() const { return docs_.size(); }

  const Document& doc(DocId id) const {
    if (backing_ != nullptr &&
        !materialized_[id].load(std::memory_order_acquire)) {
      MaterializeSlow(id);
    }
    return docs_[id];
  }

  /// doc(id) with its text and attributes present (Document::has_content).
  /// In backed mode the first call decodes them; in-memory documents
  /// always have them.
  const Document& DocWithContent(DocId id) const {
    if (backing_ != nullptr &&
        !content_loaded_[id].load(std::memory_order_acquire)) {
      LoadContentSlow(id);
    }
    return docs_[id];
  }

  TagId tag(NodeRef ref) const { return doc(ref.doc).tag(ref.node); }

  const NodeSpan& span(NodeRef ref) const {
    return doc(ref.doc).span(ref.node);
  }

  /// True iff `ref` is a node of its document. A backed document that
  /// failed to decode is empty, so this is how it matches nothing: the
  /// element tables and postings still name its nodes. Materializes the
  /// document.
  bool HasNode(NodeRef ref) const { return ref.node < doc(ref.doc).size(); }

  /// Element count of document `id` without materializing it.
  size_t DocSize(DocId id) const {
    return backing_ != nullptr ? backing_->DocNodeCount(id)
                               : docs_[id].size();
  }

  TagDict* tags() { return &tags_; }
  const TagDict& tags() const { return tags_; }

  /// Total number of element nodes across all documents. Served from the
  /// directory in backed mode (no materialization).
  size_t TotalNodes() const;

  /// True iff `a` is a proper ancestor of `d` (requires same document).
  bool IsAncestor(NodeRef a, NodeRef d) const {
    return a.doc == d.doc && doc(a.doc).IsAncestor(a.node, d.node);
  }

  /// True iff `a` is the parent of `d` (requires same document).
  bool IsParent(NodeRef a, NodeRef d) const {
    return a.doc == d.doc && doc(a.doc).IsParent(a.node, d.node);
  }

 private:
  /// Cold path of doc(): decodes and installs the document under
  /// materialize_mu_, then release-stores the flag the fast path
  /// acquire-loads — so a reader that skips the lock still sees the
  /// fully written Document.
  void MaterializeSlow(DocId id) const;

  /// Cold path of DocWithContent: materializes the structure, then
  /// decodes and attaches the content under materialize_mu_ and publishes
  /// it through content_loaded_[id] the same way.
  void LoadContentSlow(DocId id) const;

  TagDict tags_;
  /// Slots are written at most twice after AttachBacking, structure then
  /// content (under materialize_mu_, published via materialized_[id] and
  /// content_loaded_[id]); logically const.
  mutable std::vector<Document> docs_;

  std::shared_ptr<const CorpusBacking> backing_;
  mutable std::unique_ptr<std::atomic<bool>[]> materialized_;
  mutable std::unique_ptr<std::atomic<bool>[]> content_loaded_;
  mutable std::unique_ptr<Mutex> materialize_mu_;
};

}  // namespace flexpath

#endif  // FLEXPATH_XML_CORPUS_H_
