#ifndef FLEXPATH_STORAGE_FORMAT_H_
#define FLEXPATH_STORAGE_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <iterator>

namespace flexpath {
namespace storage {

/// The packed single-file corpus format (DESIGN.md §17). All multi-byte
/// integers are little-endian; fixed-width directory records are padded
/// to natural alignment and sections start on page boundaries, so a
/// reader can point straight into the mapping without copying. Variable
/// content (node streams, node content, element tables, posting lists)
/// is varint coded, and every sorted list is one delta chain, per
/// storage/codec.h.
///
/// Layout:
///   FileHeader (page 0)
///   SectionRecord table (immediately after the header)
///   sections, each page-aligned, in kSectionIds order.

inline constexpr uint64_t kMagic = 0x50524F434B505846ULL;  // "FXPKCORP" LE
/// Version 5: (tag, level) node streams, text and attributes in
/// kSecNodeContent, and each element table and posting list one delta
/// chain with no restarts. Version 1-4 files must be re-packed.
inline constexpr uint32_t kFormatVersion = 5;
/// Written as a native u32; reads back as this value only on a
/// same-endianness machine (the mmap'd directories are raw memory, so a
/// cross-endian file is rejected rather than misread).
inline constexpr uint32_t kEndianTag = 0x01020304;
inline constexpr uint32_t kPageSize = 4096;

/// Section identifiers; the section table is sorted by id. Ids 7 (v2's
/// element skip table) and 12 (v3's posting skip table) are retired, and
/// the others keep their numbers.
enum SectionId : uint32_t {
  kSecTagNames = 1,      ///< tag_count varint-prefixed names.
  kSecDocDir = 2,        ///< doc_count × DocDirRecord.
  kSecNodeStreams = 3,   ///< per-doc structure: varint tag, level per node.
  kSecNodeContent = 4,   ///< per-doc text and attributes (see writer.cc).
  kSecElemDir = 5,       ///< tag_count × ElemDirRecord.
  kSecElemBlocks = 6,    ///< one key delta chain per tag.
  kSecStats = 8,         ///< #(t)/#pc/#ad/existence tables (varint).
  kSecTermDir = 9,       ///< term_count × TermDirRecord, term-sorted.
  kSecTermStrings = 10,  ///< raw term bytes, referenced by TermDirRecord.
  kSecPostBlocks = 11,   ///< delta-coded posting lists.
};
/// The sections a file holds, in table (and file) order.
inline constexpr SectionId kSectionIds[] = {
    kSecTagNames,    kSecDocDir,     kSecNodeStreams, kSecNodeContent,
    kSecElemDir,     kSecElemBlocks, kSecStats,       kSecTermDir,
    kSecTermStrings, kSecPostBlocks};
inline constexpr uint32_t kSectionCount = std::size(kSectionIds);
static_assert(kSectionCount == 10);
/// The largest id in kSectionIds; a reader's by-id table has this + 1 slots.
inline constexpr uint32_t kMaxSectionId = [] {
  uint32_t max_id = 0;
  for (SectionId id : kSectionIds) max_id = id > max_id ? id : max_id;
  return max_id;
}();

struct FileHeader {
  uint64_t magic = kMagic;
  uint32_t version = kFormatVersion;
  uint32_t endian_tag = kEndianTag;
  uint32_t page_size = kPageSize;
  uint32_t tokenizer_flags = 0;  ///< bit0: stem, bit1: drop_stopwords.
  uint64_t file_bytes = 0;       ///< Total file size (truncation check).
  uint64_t doc_count = 0;
  uint64_t total_nodes = 0;
  uint64_t tag_count = 0;
  uint64_t term_count = 0;
  uint32_t section_count = kSectionCount;
  uint32_t reserved = 0;
};
static_assert(sizeof(FileHeader) == 72, "FileHeader layout is the format");

struct SectionRecord {
  uint32_t id = 0;
  uint32_t reserved = 0;
  uint64_t offset = 0;  ///< Absolute byte offset; page aligned.
  uint64_t length = 0;  ///< Exact byte length (padding not included).
};
static_assert(sizeof(SectionRecord) == 24, "SectionRecord layout");

/// One document: where its structure stream lives inside kSecNodeStreams
/// and its content inside kSecNodeContent, and how many element nodes it
/// holds (so the corpus can answer DocSize() without touching either).
/// Every node costs at least two bytes in each stream.
struct DocDirRecord {
  uint64_t offset = 0;  ///< Into kSecNodeStreams.
  uint64_t length = 0;
  uint64_t content_offset = 0;  ///< Into kSecNodeContent.
  uint64_t content_length = 0;
  uint32_t node_count = 0;
  uint32_t reserved = 0;
};
static_assert(sizeof(DocDirRecord) == 40, "DocDirRecord layout");

/// One tag's element table: `count` strictly increasing NodeRef keys
/// ((doc << 32) | node) in kSecElemBlocks, one delta chain decoded whole.
struct ElemDirRecord {
  uint64_t count = 0;
  uint64_t offset = 0;  ///< Into kSecElemBlocks.
  uint64_t length = 0;
};
static_assert(sizeof(ElemDirRecord) == 24, "ElemDirRecord layout");

/// One term: its bytes in kSecTermStrings, its document frequency (so
/// Idf needs no posting decode), and its `df` postings in kSecPostBlocks:
/// the delta chain of their NodeRef keys, then per posting its tf and the
/// delta chain of its tf token positions, decoded whole.
struct TermDirRecord {
  uint64_t str_offset = 0;
  uint32_t str_length = 0;
  uint32_t df = 0;
  uint64_t post_offset = 0;  ///< Into kSecPostBlocks.
  uint64_t post_length = 0;
};
static_assert(sizeof(TermDirRecord) == 32, "TermDirRecord layout");

/// Rounds `n` up to the next page boundary.
inline uint64_t PageAlign(uint64_t n) {
  return (n + kPageSize - 1) / kPageSize * kPageSize;
}

}  // namespace storage
}  // namespace flexpath

#endif  // FLEXPATH_STORAGE_FORMAT_H_
