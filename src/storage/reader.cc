#include "storage/reader.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iterator>
#include <utility>

#include "common/log.h"
#include "common/metrics.h"
#include "storage/codec.h"

namespace flexpath {
namespace storage {

namespace {

Counter* ColdBlockDecodes() {
  static Counter* c =
      MetricsRegistry::Global().counter("storage.cold_block_decodes");
  return c;
}

NodeRef RefOf(uint64_t key) {
  return NodeRef{static_cast<DocId>(key >> 32),
                 static_cast<NodeId>(key & 0xffffffffULL)};
}

/// Reads a varint-length-prefixed string.
Status GetString(std::string_view data, size_t* pos, std::string* out) {
  uint64_t len = 0;
  FLEXPATH_RETURN_IF_ERROR(GetVarint(data, pos, &len));
  if (len > data.size() - *pos) {
    return Status::InvalidArgument("truncated string");
  }
  out->assign(data.data() + *pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return Status::OK();
}

/// Reads a varint of at most 32 bits; false on truncation or overflow.
/// The structure decode's inner loop: a one-byte value (every tag and
/// level below 128) takes the fast path.
inline bool GetVarint32(std::string_view data, size_t* pos, uint32_t* out) {
  if (*pos < data.size() && static_cast<uint8_t>(data[*pos]) < 0x80) {
    *out = static_cast<uint8_t>(data[(*pos)++]);
    return true;
  }
  uint64_t v = 0;
  if (!GetVarint(data, pos, &v).ok() || v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

Status DecodePairMap(std::string_view data, size_t* pos,
                     std::unordered_map<uint64_t, uint64_t>* out) {
  uint64_t n = 0;
  FLEXPATH_RETURN_IF_ERROR(GetVarint(data, pos, &n));
  if (n > data.size() - *pos) {  // >= 2 bytes per entry would also hold.
    return Status::InvalidArgument("implausible stats map size");
  }
  out->reserve(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t key = 0;
    uint64_t count = 0;
    FLEXPATH_RETURN_IF_ERROR(GetVarint(data, pos, &key));
    FLEXPATH_RETURN_IF_ERROR(GetVarint(data, pos, &count));
    (*out)[key] = count;
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<StorageReader>> StorageReader::Open(
    const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  Result<MmapFile> file = MmapFile::Open(path);
  if (!file.ok()) return file.status();
  // Not make_shared: the ctor is private.
  std::shared_ptr<StorageReader> reader(new StorageReader());
  reader->file_ = std::move(file).value();
  FLEXPATH_RETURN_IF_ERROR(reader->Validate());
  const double open_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  MetricsRegistry::Global()
      .histogram("storage.open_ms")
      ->Observe(open_ms);
  FLEXPATH_LOG_INFO("storage", "packed corpus opened", {"path", path},
                    {"bytes", reader->header_.file_bytes},
                    {"docs", reader->header_.doc_count},
                    {"terms", reader->header_.term_count},
                    {"open_ms", open_ms});
  return reader;
}

Status StorageReader::Validate() {
  const std::string_view view = file_.view();
  if (view.size() < sizeof(FileHeader)) {
    return Status::InvalidArgument("file too small for a packed corpus");
  }
  std::memcpy(&header_, view.data(), sizeof(FileHeader));
  if (header_.magic != kMagic) {
    return Status::InvalidArgument("not a packed corpus (bad magic)");
  }
  if (header_.endian_tag != kEndianTag) {
    return Status::InvalidArgument(
        "packed corpus was written on a machine with different endianness");
  }
  if (header_.version < kFormatVersion) {
    return Status::InvalidArgument(
        "packed corpus version " + std::to_string(header_.version) +
        " is no longer supported (reader supports " +
        std::to_string(kFormatVersion) +
        "); re-pack it from the source XML with flexpath_pack or "
        "FlexPath::SavePacked");
  }
  if (header_.version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported packed corpus version " +
        std::to_string(header_.version) + " (reader supports " +
        std::to_string(kFormatVersion) + ")");
  }
  if (header_.page_size != kPageSize) {
    return Status::InvalidArgument("unsupported page size " +
                                   std::to_string(header_.page_size));
  }
  if (header_.section_count != kSectionCount) {
    return Status::InvalidArgument("unexpected section count");
  }
  if (header_.file_bytes != view.size()) {
    return Status::InvalidArgument(
        "truncated packed corpus: header says " +
        std::to_string(header_.file_bytes) + " bytes, file has " +
        std::to_string(view.size()));
  }
  const size_t table_bytes = kSectionCount * sizeof(SectionRecord);
  if (view.size() < sizeof(FileHeader) + table_bytes) {
    return Status::InvalidArgument("truncated section table");
  }
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    SectionRecord rec;
    std::memcpy(&rec,
                view.data() + sizeof(FileHeader) + i * sizeof(SectionRecord),
                sizeof(rec));
    if (rec.id != kSectionIds[i]) {
      return Status::InvalidArgument("section table out of order");
    }
    if (rec.offset % kPageSize != 0) {
      return Status::InvalidArgument("section not page-aligned");
    }
    if (rec.offset > view.size() || rec.length > view.size() - rec.offset) {
      return Status::InvalidArgument("section extends past end of file");
    }
    sections_[rec.id] = rec;
  }

  // Fixed-width directories: exact length check, then point straight
  // into the mapping (page alignment makes the casts aligned).
  const std::string_view doc_dir = Section(kSecDocDir);
  if (doc_dir.size() != header_.doc_count * sizeof(DocDirRecord)) {
    return Status::InvalidArgument("document directory length mismatch");
  }
  doc_dir_ = reinterpret_cast<const DocDirRecord*>(doc_dir.data());
  // Every node costs at least two bytes in each stream, which also
  // bounds the node arrays a decode allocates by the file size.
  const std::string_view streams = Section(kSecNodeStreams);
  const std::string_view content = Section(kSecNodeContent);
  for (uint64_t d = 0; d < header_.doc_count; ++d) {
    const DocDirRecord& rec = doc_dir_[d];
    if (rec.offset > streams.size() ||
        rec.length > streams.size() - rec.offset ||
        rec.length / 2 < rec.node_count ||
        rec.content_offset > content.size() ||
        rec.content_length > content.size() - rec.content_offset ||
        rec.content_length / 2 < rec.node_count ||
        rec.node_count > UINT32_MAX / 2) {
      return Status::InvalidArgument("node stream out of bounds for doc " +
                                     std::to_string(d));
    }
  }

  const std::string_view elem_dir = Section(kSecElemDir);
  if (elem_dir.size() != header_.tag_count * sizeof(ElemDirRecord)) {
    return Status::InvalidArgument("element directory length mismatch");
  }
  elem_dir_ = reinterpret_cast<const ElemDirRecord*>(elem_dir.data());
  const std::string_view elem_blocks = Section(kSecElemBlocks);
  for (uint64_t t = 0; t < header_.tag_count; ++t) {
    const ElemDirRecord& rec = elem_dir_[t];
    // Every key costs at least one varint byte, which bounds the list a
    // decode allocates by the file size.
    if (rec.offset > elem_blocks.size() ||
        rec.length > elem_blocks.size() - rec.offset ||
        rec.count > rec.length) {
      return Status::InvalidArgument("element directory entry " +
                                     std::to_string(t) + " out of bounds");
    }
  }

  const std::string_view term_dir = Section(kSecTermDir);
  if (term_dir.size() != header_.term_count * sizeof(TermDirRecord)) {
    return Status::InvalidArgument("term directory length mismatch");
  }
  term_dir_ = reinterpret_cast<const TermDirRecord*>(term_dir.data());
  const std::string_view strings = Section(kSecTermStrings);
  const std::string_view post_blocks = Section(kSecPostBlocks);
  for (uint64_t t = 0; t < header_.term_count; ++t) {
    const TermDirRecord& rec = term_dir_[t];
    // Every posting costs at least three bytes (key, tf, one position),
    // which bounds the list a decode allocates by the file size.
    if (rec.str_offset > strings.size() ||
        rec.str_length > strings.size() - rec.str_offset ||
        rec.post_offset > post_blocks.size() ||
        rec.post_length > post_blocks.size() - rec.post_offset ||
        rec.df == 0 || rec.df > rec.post_length / 3) {
      return Status::InvalidArgument("term directory entry " +
                                     std::to_string(t) + " out of bounds");
    }
    if (t > 0 && !(TermBytes(term_dir_[t - 1]) < TermBytes(rec))) {
      return Status::InvalidArgument("term directory is not sorted");
    }
  }
  return Status::OK();
}

Status StorageReader::LoadTags(TagDict* dict) const {
  if (dict->size() != 0) {
    return Status::InvalidArgument("tag dictionary must be empty");
  }
  const std::string_view sec = Section(kSecTagNames);
  size_t pos = 0;
  std::string name;
  for (uint64_t t = 0; t < header_.tag_count; ++t) {
    FLEXPATH_RETURN_IF_ERROR(GetString(sec, &pos, &name));
    if (dict->Intern(name) != static_cast<TagId>(t)) {
      return Status::InvalidArgument("duplicate tag name in packed corpus");
    }
  }
  if (pos != sec.size()) {
    return Status::InvalidArgument("trailing bytes after tag names");
  }
  return Status::OK();
}

Result<DocumentStats::Tables> StorageReader::LoadStatsTables() const {
  const std::string_view sec = Section(kSecStats);
  size_t pos = 0;
  DocumentStats::Tables tables;
  uint64_t n = 0;
  FLEXPATH_RETURN_IF_ERROR(GetVarint(sec, &pos, &n));
  if (n != header_.tag_count) {
    return Status::InvalidArgument("stats tag-count table length mismatch");
  }
  tables.tag_counts.resize(static_cast<size_t>(n));
  for (uint64_t i = 0; i < n; ++i) {
    FLEXPATH_RETURN_IF_ERROR(GetVarint(sec, &pos, &tables.tag_counts[i]));
  }
  FLEXPATH_RETURN_IF_ERROR(DecodePairMap(sec, &pos, &tables.pc_counts));
  FLEXPATH_RETURN_IF_ERROR(DecodePairMap(sec, &pos, &tables.ad_counts));
  FLEXPATH_RETURN_IF_ERROR(DecodePairMap(sec, &pos, &tables.pc_exists));
  FLEXPATH_RETURN_IF_ERROR(DecodePairMap(sec, &pos, &tables.ad_exists));
  if (pos != sec.size()) {
    return Status::InvalidArgument("trailing bytes after stats tables");
  }
  return tables;
}

size_t StorageReader::DocNodeCount(DocId id) const {
  return id < header_.doc_count ? doc_dir_[id].node_count : 0;
}

Result<Document> StorageReader::MaterializeDocument(DocId id) const {
  if (id >= header_.doc_count) {
    return Status::OutOfRange("document id out of range");
  }
  static Counter* m_decodes =
      MetricsRegistry::Global().counter("storage.doc_decodes");
  static Counter* m_bytes =
      MetricsRegistry::Global().counter("storage.doc_decode_bytes");
  const DocDirRecord& rec = doc_dir_[id];
  const std::string_view stream = Section(kSecNodeStreams)
                                      .substr(static_cast<size_t>(rec.offset),
                                              static_cast<size_t>(rec.length));
  // Per node: tag, level. A pre-order level sequence with level[0] == 0
  // and 1 <= level[n] <= level[n-1] + 1 is exactly a single-rooted tree,
  // so that range test is the whole structural check. One stack of open
  // nodes (open[l] is at level l) then rebuilds parents and the
  // intervals, numbered by DocumentBuilder's open/close counter.
  std::vector<TagId> tags(rec.node_count);
  std::vector<NodeSpan> spans(rec.node_count);
  std::vector<NodeId> open;
  uint32_t counter = 0;
  size_t pos = 0;
  for (NodeId n = 0; n < rec.node_count; ++n) {
    uint32_t tag = 0;
    uint32_t level = 0;
    if (!GetVarint32(stream, &pos, &tag) ||
        !GetVarint32(stream, &pos, &level)) {
      return Status::InvalidArgument("truncated node stream of doc " +
                                     std::to_string(id));
    }
    if (tag >= header_.tag_count ||
        (n == 0 ? level != 0 : level == 0 || level > open.size())) {
      return Status::InvalidArgument("corrupt node record in doc " +
                                     std::to_string(id));
    }
    for (; open.size() > level; open.pop_back()) {
      spans[open.back()].end = counter++;
    }
    NodeSpan& span = spans[n];
    span.start = counter++;
    span.level = level;
    if (level > 0) span.parent = open.back();
    tags[n] = tag;
    open.push_back(n);
  }
  for (; !open.empty(); open.pop_back()) spans[open.back()].end = counter++;
  if (pos != stream.size()) {
    return Status::InvalidArgument("trailing bytes in node stream of doc " +
                                   std::to_string(id));
  }
  m_decodes->Inc();
  m_bytes->Inc(rec.length);
  return Document::Assemble(std::move(tags), std::move(spans));
}

Result<std::vector<NodeContent>> StorageReader::MaterializeContent(
    DocId id) const {
  if (id >= header_.doc_count) {
    return Status::OutOfRange("document id out of range");
  }
  static Counter* m_decodes =
      MetricsRegistry::Global().counter("storage.content_decodes");
  static Counter* m_bytes =
      MetricsRegistry::Global().counter("storage.content_decode_bytes");
  const DocDirRecord& rec = doc_dir_[id];
  const std::string_view bytes =
      Section(kSecNodeContent)
          .substr(static_cast<size_t>(rec.content_offset),
                  static_cast<size_t>(rec.content_length));
  // Per node: text, attribute count, then (name, value) per attribute.
  std::vector<NodeContent> content(rec.node_count);
  size_t pos = 0;
  for (NodeContent& c : content) {
    FLEXPATH_RETURN_IF_ERROR(GetString(bytes, &pos, &c.text));
    uint64_t attr_count = 0;
    FLEXPATH_RETURN_IF_ERROR(GetVarint(bytes, &pos, &attr_count));
    if (attr_count > bytes.size() - pos) {
      return Status::InvalidArgument("implausible attribute count");
    }
    c.attrs.resize(static_cast<size_t>(attr_count));
    for (Attribute& a : c.attrs) {
      uint64_t name = 0;
      FLEXPATH_RETURN_IF_ERROR(GetVarint(bytes, &pos, &name));
      if (name >= header_.tag_count) {
        return Status::InvalidArgument("corrupt attribute name");
      }
      a.name = static_cast<TagId>(name);
      FLEXPATH_RETURN_IF_ERROR(GetString(bytes, &pos, &a.value));
    }
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes in node content of doc " +
                                   std::to_string(id));
  }
  m_decodes->Inc();
  m_bytes->Inc(rec.content_length);
  return content;
}

std::vector<NodeRef> StorageReader::TagList(TagId tag) const {
  std::vector<NodeRef> list;
  if (tag >= header_.tag_count) return list;
  const ElemDirRecord& rec = elem_dir_[tag];
  const std::string_view bytes = Section(kSecElemBlocks)
                                     .substr(static_cast<size_t>(rec.offset),
                                             static_cast<size_t>(rec.length));
  std::vector<uint64_t> keys;
  size_t pos = 0;
  Status decoded = GetDeltaChain(bytes, &pos, rec.count, &keys);
  if (decoded.ok() && pos != bytes.size()) {
    decoded = Status::InvalidArgument("trailing bytes after element table");
  }
  if (decoded.ok()) {
    list.reserve(keys.size());
    for (uint64_t key : keys) {
      // The evaluator indexes the named document's node arrays with
      // these keys, so each must name a node that exists.
      const NodeRef ref = RefOf(key);
      if (ref.doc >= header_.doc_count ||
          ref.node >= doc_dir_[ref.doc].node_count) {
        decoded = Status::InvalidArgument("element key out of range");
        list.clear();
        break;
      }
      list.push_back(ref);
    }
  }
  if (decoded.ok()) {
    ColdBlockDecodes()->Inc();
  } else {
    // TagList cannot return a Status; an empty list is well-defined (the
    // tag matches nothing) and the log line surfaces the corruption.
    FLEXPATH_LOG_ERROR("storage", "element table decode failed",
                       {"tag", static_cast<uint64_t>(tag)},
                       {"error", decoded.ToString()});
  }
  return list;
}

std::string_view StorageReader::TermBytes(const TermDirRecord& rec) const {
  return Section(kSecTermStrings)
      .substr(static_cast<size_t>(rec.str_offset), rec.str_length);
}

int64_t StorageReader::FindTermIndex(std::string_view term) const {
  int64_t lo = 0;
  int64_t hi = static_cast<int64_t>(header_.term_count);
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (TermBytes(term_dir_[mid]) < term) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < static_cast<int64_t>(header_.term_count) &&
      TermBytes(term_dir_[lo]) == term) {
    return lo;
  }
  return -1;
}

bool StorageReader::TermInfo(const std::string& term, uint32_t* df) const {
  const int64_t idx = FindTermIndex(term);
  if (idx < 0) return false;
  *df = term_dir_[idx].df;
  return true;
}

std::optional<PostingList> StorageReader::FindPostings(
    const std::string& term) const {
  const int64_t idx = FindTermIndex(term);
  if (idx < 0) return std::nullopt;
  const TermDirRecord& rec = term_dir_[idx];
  const std::string_view bytes =
      Section(kSecPostBlocks)
          .substr(static_cast<size_t>(rec.post_offset),
                  static_cast<size_t>(rec.post_length));
  PostingList list;
  Status decoded = DecodePostings(bytes, rec.df, &list.postings);
  if (decoded.ok()) {
    ColdBlockDecodes()->Inc();
  } else {
    // Same contract as TagList: corruption yields an empty (matches
    // nothing) list plus a log line, never a crash.
    FLEXPATH_LOG_ERROR("storage", "posting list decode failed",
                       {"term", term}, {"error", decoded.ToString()});
    list.postings.clear();
  }
  return list;
}

Status StorageReader::DecodePostings(std::string_view bytes, uint32_t df,
                                     std::vector<Posting>* out) const {
  std::vector<uint64_t> keys;
  size_t pos = 0;
  FLEXPATH_RETURN_IF_ERROR(GetDeltaChain(bytes, &pos, df, &keys));
  out->reserve(df);
  for (uint64_t key : keys) {
    Posting p;
    p.node = RefOf(key);
    if (p.node.doc >= header_.doc_count ||
        p.node.node >= doc_dir_[p.node.doc].node_count) {
      return Status::InvalidArgument("posting key out of range");
    }
    uint64_t tf = 0;
    FLEXPATH_RETURN_IF_ERROR(GetVarint(bytes, &pos, &tf));
    if (tf == 0) return Status::InvalidArgument("posting without positions");
    FLEXPATH_RETURN_IF_ERROR(GetDeltaChain(bytes, &pos, tf, &p.positions));
    p.tf = static_cast<uint32_t>(tf);
    out->push_back(std::move(p));
  }
  if (pos != bytes.size()) {
    return Status::InvalidArgument("trailing bytes after posting list");
  }
  return Status::OK();
}

std::string StorageReader::InspectJson() const {
  std::string out = "{\n";
  auto field = [&](const std::string& key, uint64_t value, bool comma) {
    out += "  \"" + key + "\": " + std::to_string(value) +
           (comma ? ",\n" : "\n");
  };
  out += "  \"magic\": \"FXPKCORP\",\n";
  field("version", header_.version, true);
  field("page_size", header_.page_size, true);
  field("tokenizer_flags", header_.tokenizer_flags, true);
  field("file_bytes", header_.file_bytes, true);
  field("doc_count", header_.doc_count, true);
  field("total_nodes", header_.total_nodes, true);
  field("tag_count", header_.tag_count, true);
  field("term_count", header_.term_count, true);
  out += "  \"sections\": [\n";
  static constexpr const char* kSectionNames[] = {
      "tag_names",    "doc_dir",     "node_streams", "node_content",
      "elem_dir",     "elem_blocks", "stats",        "term_dir",
      "term_strings", "post_blocks"};
  static_assert(std::size(kSectionNames) == kSectionCount);
  for (uint32_t i = 0; i < kSectionCount; ++i) {
    const SectionRecord& rec = sections_[kSectionIds[i]];
    out += "    {\"id\": " + std::to_string(rec.id) + ", \"name\": \"" +
           kSectionNames[i] + "\", \"offset\": " +
           std::to_string(rec.offset) + ", \"length\": " +
           std::to_string(rec.length) + "}" +
           (i + 1 < kSectionCount ? ",\n" : "\n");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace storage
}  // namespace flexpath
