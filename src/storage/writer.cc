#include "storage/writer.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "ir/inverted_index.h"
#include "stats/document_stats.h"
#include "storage/codec.h"
#include "storage/format.h"

namespace flexpath {
namespace storage {

namespace {

/// NodeRef → the strictly increasing key the element/posting sections
/// sort by. (doc, node) order == global document order.
uint64_t KeyOf(NodeRef ref) {
  return (static_cast<uint64_t>(ref.doc) << 32) | ref.node;
}

void PutString(std::string_view s, std::string* out) {
  PutVarint(s.size(), out);
  out->append(s.data(), s.size());
}

/// Serializes one document's structure as the (tag, level) varint pairs
/// the reader's MaterializeDocument parses, and its content as the
/// (text, attribute count, (name, value)*) records MaterializeContent
/// parses. Field order is the format.
void EncodeDocument(const Document& doc, std::string* structure,
                    std::string* content) {
  for (NodeId n = 0; n < doc.size(); ++n) {
    PutVarint(doc.tag(n), structure);
    PutVarint(doc.span(n).level, structure);
    const NodeContent& c = doc.content(n);
    PutString(c.text, content);
    PutVarint(c.attrs.size(), content);
    for (const Attribute& a : c.attrs) {
      PutVarint(a.name, content);
      PutString(a.value, content);
    }
  }
}

/// Serializes a pair-count map as sorted (key, count) varint pairs —
/// sorted so packing is deterministic.
void EncodePairMap(const std::unordered_map<uint64_t, uint64_t>& m,
                   std::string* out) {
  std::vector<std::pair<uint64_t, uint64_t>> entries(m.begin(), m.end());
  std::sort(entries.begin(), entries.end());
  PutVarint(entries.size(), out);
  for (const auto& [key, count] : entries) {
    PutVarint(key, out);
    PutVarint(count, out);
  }
}

/// Encodes one posting list: the delta chain of its keys, then per
/// posting its tf and the delta chain of its positions.
Status EncodePostings(const PostingList& list, std::string* out) {
  std::vector<uint64_t> keys;
  keys.reserve(list.postings.size());
  for (const Posting& p : list.postings) keys.push_back(KeyOf(p.node));
  FLEXPATH_RETURN_IF_ERROR(PutDeltaChain(keys, out));
  for (const Posting& p : list.postings) {
    if (p.tf == 0 || p.positions.size() != p.tf) {
      return Status::InvalidArgument("posting tf/positions mismatch");
    }
    PutVarint(p.tf, out);
    FLEXPATH_RETURN_IF_ERROR(PutDeltaChain(p.positions, out));
  }
  return Status::OK();
}

/// Raw-copies a POD record into a byte string.
template <typename T>
void AppendPod(const T& value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

}  // namespace

Status WritePackedCorpus(const Corpus& corpus, const TokenizerOptions& opts,
                         const std::string& path, PackResult* result) {
  // ---- Build the in-memory indexes the file snapshots. ----
  const InvertedIndex index(&corpus, opts);
  const DocumentStats stats(&corpus);
  const size_t tag_count = corpus.tags().size();

  // ---- Section payloads, keyed by SectionId. ----
  std::map<uint32_t, std::string> sections;

  // Tag names, in id order.
  {
    std::string& sec = sections[kSecTagNames];
    for (TagId t = 0; t < tag_count; ++t) {
      PutString(corpus.tags().Name(t), &sec);
    }
  }

  // Node streams, node content + document directory.
  {
    std::string& streams = sections[kSecNodeStreams];
    std::string& content = sections[kSecNodeContent];
    std::string& dir = sections[kSecDocDir];
    for (DocId d = 0; d < corpus.size(); ++d) {
      const Document& doc = corpus.DocWithContent(d);
      DocDirRecord rec;
      rec.offset = streams.size();
      rec.content_offset = content.size();
      EncodeDocument(doc, &streams, &content);
      rec.length = streams.size() - rec.offset;
      rec.content_length = content.size() - rec.content_offset;
      rec.node_count = static_cast<uint32_t>(doc.size());
      AppendPod(rec, &dir);
    }
  }

  // Per-tag element tables: the by-(doc, start) lists ElementIndex
  // serves, one key delta chain each.
  {
    std::vector<std::vector<uint64_t>> by_tag(tag_count);
    for (DocId d = 0; d < corpus.size(); ++d) {
      const Document& doc = corpus.doc(d);
      for (NodeId n = 0; n < doc.size(); ++n) {
        const TagId tag = doc.tag(n);
        if (tag < tag_count) by_tag[tag].push_back(KeyOf(NodeRef{d, n}));
      }
    }
    std::string& blocks = sections[kSecElemBlocks];
    std::string& dir = sections[kSecElemDir];
    for (TagId t = 0; t < tag_count; ++t) {
      ElemDirRecord rec;
      rec.count = by_tag[t].size();
      rec.offset = blocks.size();
      FLEXPATH_RETURN_IF_ERROR(PutDeltaChain(by_tag[t], &blocks));
      rec.length = blocks.size() - rec.offset;
      AppendPod(rec, &dir);
    }
  }

  // Statistics tables.
  {
    std::string& sec = sections[kSecStats];
    const DocumentStats::Tables tables = stats.ExportTables();
    PutVarint(tables.tag_counts.size(), &sec);
    for (uint64_t c : tables.tag_counts) PutVarint(c, &sec);
    EncodePairMap(tables.pc_counts, &sec);
    EncodePairMap(tables.ad_counts, &sec);
    EncodePairMap(tables.pc_exists, &sec);
    EncodePairMap(tables.ad_exists, &sec);
  }

  // Term directory (sorted by term bytes, so the reader binary-searches
  // the mmap'd records), term strings, posting lists.
  uint64_t term_count = 0;
  {
    std::vector<std::pair<std::string, const PostingList*>> terms;
    index.ForEachTerm([&](const std::string& term, const PostingList& list) {
      terms.emplace_back(term, &list);
    });
    std::sort(terms.begin(), terms.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    term_count = terms.size();

    std::string& dir = sections[kSecTermDir];
    std::string& strings = sections[kSecTermStrings];
    std::string& blocks = sections[kSecPostBlocks];
    for (const auto& [term, list] : terms) {
      TermDirRecord rec;
      rec.str_offset = strings.size();
      rec.str_length = static_cast<uint32_t>(term.size());
      strings.append(term);
      rec.df = static_cast<uint32_t>(list->postings.size());
      rec.post_offset = blocks.size();
      FLEXPATH_RETURN_IF_ERROR(EncodePostings(*list, &blocks));
      rec.post_length = blocks.size() - rec.post_offset;
      AppendPod(rec, &dir);
    }
  }

  // ---- Lay out the file: header, section table, page-aligned data. ----
  FileHeader header;
  header.tokenizer_flags = (opts.stem ? 1u : 0u) |
                           (opts.drop_stopwords ? 2u : 0u);
  header.doc_count = corpus.size();
  header.total_nodes = corpus.TotalNodes();
  header.tag_count = tag_count;
  header.term_count = term_count;

  std::vector<SectionRecord> table;
  uint64_t cursor =
      PageAlign(sizeof(FileHeader) + kSectionCount * sizeof(SectionRecord));
  for (const SectionId id : kSectionIds) {
    SectionRecord rec;
    rec.id = id;
    rec.offset = cursor;
    rec.length = sections[id].size();
    cursor = PageAlign(cursor + rec.length);
    table.push_back(rec);
  }
  header.file_bytes = cursor;

  // ---- Write it out. ----
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot create " + path);
  }
  std::string head;
  AppendPod(header, &head);
  for (const SectionRecord& rec : table) AppendPod(rec, &head);
  head.resize(table.empty() ? PageAlign(head.size())
                            : static_cast<size_t>(table[0].offset),
              '\0');
  bool ok = std::fwrite(head.data(), 1, head.size(), f) == head.size();
  for (size_t i = 0; ok && i < table.size(); ++i) {
    std::string& payload = sections[table[i].id];
    const uint64_t end = i + 1 < table.size() ? table[i + 1].offset
                                              : header.file_bytes;
    payload.resize(static_cast<size_t>(end - table[i].offset), '\0');
    ok = std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  }
  if (std::fclose(f) != 0) ok = false;
  if (!ok) {
    std::remove(path.c_str());
    return Status::Internal("short write to " + path);
  }

  if (result != nullptr) {
    result->file_bytes = header.file_bytes;
    result->doc_count = header.doc_count;
    result->tag_count = header.tag_count;
    result->term_count = header.term_count;
    result->total_nodes = header.total_nodes;
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace flexpath
