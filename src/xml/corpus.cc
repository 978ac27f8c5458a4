#include "xml/corpus.h"

#include <atomic>
#include <utility>

#include "common/log.h"
#include "xml/parser.h"

namespace flexpath {

DocId Corpus::Add(Document doc) {
  docs_.push_back(std::move(doc));
  return static_cast<DocId>(docs_.size() - 1);
}

Result<DocId> Corpus::AddXml(std::string_view xml) {
  Result<Document> doc = ParseXml(xml, &tags_);
  if (!doc.ok()) return doc.status();
  return Add(std::move(doc).value());
}

void Corpus::AttachBacking(std::shared_ptr<const CorpusBacking> backing) {
  backing_ = std::move(backing);
  const size_t n = backing_->DocCount();
  docs_.clear();
  docs_.resize(n);  // Empty slots; filled on first touch.
  materialized_ = std::make_unique<std::atomic<bool>[]>(n);
  content_loaded_ = std::make_unique<std::atomic<bool>[]>(n);
  for (size_t i = 0; i < n; ++i) {
    materialized_[i].store(false, std::memory_order_relaxed);
    content_loaded_[i].store(false, std::memory_order_relaxed);
  }
  materialize_mu_ = std::make_unique<Mutex>();
}

void Corpus::MaterializeSlow(DocId id) const {
  MutexLock lock(*materialize_mu_);
  if (materialized_[id].load(std::memory_order_relaxed)) return;
  Result<Document> doc = backing_->MaterializeDocument(id);
  if (doc.ok()) {
    docs_[id] = std::move(doc).value();
  } else {
    // doc() cannot return a Status; an empty document keeps the engine
    // well-defined (the doc simply matches nothing) while the log line
    // makes the corruption visible.
    FLEXPATH_LOG_ERROR("storage", "document materialization failed",
                       {"doc", static_cast<uint64_t>(id)},
                       {"error", doc.status().ToString()});
  }
  materialized_[id].store(true, std::memory_order_release);
}

void Corpus::LoadContentSlow(DocId id) const {
  const Document& structure = doc(id);
  MutexLock lock(*materialize_mu_);
  if (content_loaded_[id].load(std::memory_order_relaxed)) return;
  // A document whose structure failed to decode is empty and so already
  // has its (empty) content.
  if (!structure.has_content()) {
    Result<std::vector<NodeContent>> content =
        backing_->MaterializeContent(id);
    if (content.ok() && content->size() == structure.size()) {
      docs_[id].AttachContent(std::move(content).value());
    } else {
      // Same contract as MaterializeSlow: the document keeps its
      // structure, and its nodes have no text or attributes, so
      // attribute predicates on it match nothing.
      FLEXPATH_LOG_ERROR(
          "storage", "document content decode failed",
          {"doc", static_cast<uint64_t>(id)},
          {"error", content.ok() ? "node count mismatch"
                                 : content.status().ToString()});
      docs_[id].AttachContent(std::vector<NodeContent>(structure.size()));
    }
  }
  content_loaded_[id].store(true, std::memory_order_release);
}

size_t Corpus::TotalNodes() const {
  size_t n = 0;
  for (size_t i = 0; i < docs_.size(); ++i) {
    n += DocSize(static_cast<DocId>(i));
  }
  return n;
}

}  // namespace flexpath
