#ifndef FLEXPATH_XML_DOCUMENT_H_
#define FLEXPATH_XML_DOCUMENT_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/tag_dict.h"

namespace flexpath {

/// Index of an element within its Document (pre-order position).
using NodeId = uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// One attribute on an element.
struct Attribute {
  TagId name = kInvalidTag;
  std::string value;
};

/// Dietz interval numbers and the parent link of one element: with its
/// tag, the whole structure of the node. `a` is an ancestor of `d` iff
/// a.start < d.start && d.end < a.end; `a` is the parent of `d` iff
/// additionally d.level == a.level + 1. The open/close counter numbers
/// both ends, so a subtree holds (end - start + 1) / 2 nodes, which is
/// how children and siblings are found without links. Input lists
/// sorted by node id are automatically sorted by `start`, which the
/// structural join requires.
struct NodeSpan {
  uint32_t start = 0;   ///< Interval open number.
  uint32_t end = 0;     ///< Interval close number (> start).
  NodeId parent = kInvalidNode;
  uint32_t level = 0;   ///< Root is level 0.
};
static_assert(sizeof(NodeSpan) == 16, "NodeSpan is the hot per-node record");

/// The text and attributes of one element. Only attribute predicates,
/// answer snippets, the IR index build and serialization (XML or packed)
/// read them, so a packed document decodes them separately and only when
/// one of those first asks (Corpus::DocWithContent).
struct NodeContent {
  std::string text;     ///< Immediate text content (children excluded).
  std::vector<Attribute> attrs;
};

/// An in-memory XML document: the tags of its elements in document
/// (pre-)order, so NodeId doubles as document order, and parallel
/// vectors of their spans and contents. Build with DocumentBuilder or
/// the Parser; immutable afterwards, except that a document assembled
/// from structure alone gets its contents attached once (AttachContent).
class Document {
 public:
  Document() = default;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;
  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;

  /// Number of element nodes.
  size_t size() const { return tags_.size(); }
  bool empty() const { return tags_.empty(); }

  TagId tag(NodeId id) const { return tags_[id]; }
  const NodeSpan& span(NodeId id) const { return spans_[id]; }
  NodeId root() const { return tags_.empty() ? kInvalidNode : 0; }

  /// One past the last node of `id`'s subtree: the subtree is the id
  /// range [id, SubtreeEnd(id)), and a node's next sibling, if it has
  /// one, starts where its subtree ends.
  NodeId SubtreeEnd(NodeId id) const {
    return id + (spans_[id].end - spans_[id].start + 1) / 2;
  }

  /// True once text and attributes are present for every node: always
  /// for a built document, after AttachContent for an assembled one.
  bool has_content() const { return content_.size() == tags_.size(); }
  const NodeContent& content(NodeId id) const {
    assert(has_content());
    return content_[id];
  }

  /// True iff `a` is a proper ancestor of `d`.
  bool IsAncestor(NodeId a, NodeId d) const {
    const NodeSpan& sa = spans_[a];
    const NodeSpan& sd = spans_[d];
    return sa.start < sd.start && sd.end < sa.end;
  }

  /// True iff `a` is the parent of `d`.
  bool IsParent(NodeId a, NodeId d) const { return spans_[d].parent == a; }

  /// Concatenated text of the subtree rooted at `id`, in document order,
  /// with single spaces between fragments. O(subtree). Requires content.
  std::string SubtreeText(NodeId id) const;

  /// Returns the children of `id` in document order.
  std::vector<NodeId> Children(NodeId id) const;

  /// Returns the value of attribute `name` on `id`, or nullptr if absent.
  /// Requires content.
  const std::string* FindAttribute(NodeId id, TagId name) const;

  /// Wraps already-valid parallel tag and span vectors (pre-order,
  /// interval-numbered) as a Document without content — used by the
  /// packed reader, which rebuilds the structure exactly as a builder
  /// numbers it. Performs no validation beyond the two sizes matching.
  static Document Assemble(std::vector<TagId> tags,
                           std::vector<NodeSpan> spans) {
    assert(tags.size() == spans.size());
    Document doc;
    doc.tags_ = std::move(tags);
    doc.spans_ = std::move(spans);
    return doc;
  }

  /// Attaches the contents of an assembled document, one per node. Writes
  /// only the content array, so a reader of the structure may run
  /// concurrently (Corpus::DocWithContent publishes the result).
  void AttachContent(std::vector<NodeContent> content) {
    assert(content.size() == tags_.size() && content_.empty());
    content_ = std::move(content);
  }

 private:
  friend class DocumentBuilder;
  std::vector<TagId> tags_;
  std::vector<NodeSpan> spans_;        ///< spans_[i] belongs to tags_[i].
  std::vector<NodeContent> content_;   ///< Empty until attached, if assembled.
};

/// Incrementally builds a Document. Usage:
///   DocumentBuilder b(dict);
///   b.Open("site"); b.Open("item"); b.Text("hi"); b.Close(); b.Close();
///   Result<Document> doc = std::move(b).Finish();
/// Open/Close must nest properly; Finish validates that exactly one root
/// element was produced and everything was closed.
class DocumentBuilder {
 public:
  /// `dict` must outlive the builder; tags are interned into it.
  explicit DocumentBuilder(TagDict* dict) : dict_(dict) {}

  DocumentBuilder(const DocumentBuilder&) = delete;
  DocumentBuilder& operator=(const DocumentBuilder&) = delete;

  /// Opens an element with the given tag name; returns its NodeId.
  NodeId Open(std::string_view tag);

  /// Adds an attribute to the most recently opened (still open) element.
  /// Must be called before any child or text is added to it.
  Status Attr(std::string_view name, std::string_view value);

  /// Appends text content to the innermost open element.
  Status Text(std::string_view text);

  /// Closes the innermost open element.
  Status Close();

  /// Depth of currently open elements (0 at start and after the root
  /// closes).
  size_t depth() const { return stack_.size(); }

  /// Validates and returns the document. The builder is consumed.
  Result<Document> Finish() &&;

 private:
  TagDict* dict_;
  Document doc_;
  std::vector<NodeId> stack_;      ///< Open elements, innermost last.
  uint32_t counter_ = 0;           ///< Dietz interval counter.
  bool root_done_ = false;
  Status error_;
};

}  // namespace flexpath

#endif  // FLEXPATH_XML_DOCUMENT_H_
