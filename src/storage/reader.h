#ifndef FLEXPATH_STORAGE_READER_H_
#define FLEXPATH_STORAGE_READER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "ir/inverted_index.h"
#include "ir/tokenizer.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "storage/codec.h"
#include "storage/format.h"
#include "storage/mmap_file.h"
#include "xml/corpus.h"

namespace flexpath {
namespace storage {

/// The zero-copy read side of the packed corpus format: one mmap, no
/// upfront decode. StorageReader is simultaneously
///  - the CorpusBacking a lazy Corpus materializes documents from,
///  - the ElementTableSource a packed ElementIndex scans through, and
///  - the PostingSource a packed InvertedIndex resolves terms against,
/// so one object (and one mapping) serves the whole read path.
///
/// Fixed-width structures (the directories) are *pointed at* in
/// the mapping — never copied. Variable structures (element tables,
/// posting lists) are decoded afresh on every call: the reader keeps no
/// decoded state, and each index keeps what it decodes for its session.
/// Open() validates the header, section table, and directory bounds and
/// returns a Status — corrupt or truncated files are an error, never a
/// crash — but does not touch list payloads, which is why opening a
/// multi-GB corpus is O(directories), not O(data).
///
/// Thread safety: all methods are const and safe for concurrent use.
class StorageReader : public CorpusBacking,
                      public ElementTableSource,
                      public PostingSource {
 public:
  /// Maps `path` and validates everything reachable without decoding
  /// lists: magic, version, endianness, page size, section table, and
  /// all directory records (bounds against their sections).
  static Result<std::shared_ptr<StorageReader>> Open(
      const std::string& path);

  ~StorageReader() override = default;
  StorageReader(const StorageReader&) = delete;
  StorageReader& operator=(const StorageReader&) = delete;

  // ---- Header-level accessors. ----
  const FileHeader& header() const { return header_; }
  TokenizerOptions tokenizer_options() const {
    TokenizerOptions opts;
    opts.stem = (header_.tokenizer_flags & 1u) != 0;
    opts.drop_stopwords = (header_.tokenizer_flags & 2u) != 0;
    return opts;
  }

  /// Interns all tag names, in file order, into `dict` (which must be
  /// empty — packed tag ids are positional).
  Status LoadTags(TagDict* dict) const;

  /// Deserializes the statistics tables (for DocumentStats's packed
  /// ctor).
  Result<DocumentStats::Tables> LoadStatsTables() const;

  /// Human-readable header/section dump (the `flexpath_pack --inspect`
  /// output, also uploaded as a CI artifact).
  std::string InspectJson() const;

  // ---- CorpusBacking. ----
  size_t DocCount() const override {
    return static_cast<size_t>(header_.doc_count);
  }
  size_t DocNodeCount(DocId id) const override;
  Result<Document> MaterializeDocument(DocId id) const override;
  Result<std::vector<NodeContent>> MaterializeContent(
      DocId id) const override;

  // ---- ElementTableSource. ----
  std::vector<NodeRef> TagList(TagId tag) const override;

  // ---- PostingSource. ----
  bool TermInfo(const std::string& term, uint32_t* df) const override;
  std::optional<PostingList> FindPostings(
      const std::string& term) const override;

 private:
  StorageReader() = default;

  /// Section payload bytes (exact length, padding excluded).
  std::string_view Section(uint32_t id) const {
    const SectionRecord& rec = sections_[id];
    return file_.view().substr(static_cast<size_t>(rec.offset),
                               static_cast<size_t>(rec.length));
  }

  /// Validates header/sections/directories; called once by Open.
  Status Validate();

  /// Index of `term` in the term directory, or -1.
  int64_t FindTermIndex(std::string_view term) const;
  std::string_view TermBytes(const TermDirRecord& rec) const;

  /// Decodes the `df` postings of one term's list `bytes` into `out`.
  Status DecodePostings(std::string_view bytes, uint32_t df,
                        std::vector<Posting>* out) const;

  MmapFile file_;
  FileHeader header_;
  /// Indexed by SectionId; a retired id's record stays empty.
  std::array<SectionRecord, kMaxSectionId + 1> sections_{};

  // Mmap-pointed fixed-width directories (set by Validate).
  const DocDirRecord* doc_dir_ = nullptr;
  const ElemDirRecord* elem_dir_ = nullptr;
  const TermDirRecord* term_dir_ = nullptr;
};

}  // namespace storage
}  // namespace flexpath

#endif  // FLEXPATH_STORAGE_READER_H_
