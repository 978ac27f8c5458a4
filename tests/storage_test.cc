// Tests for the packed on-disk storage engine (DESIGN.md §17): the
// varint/delta-chain codec, writer→reader round trips proving the
// mmap-backed read path serves exactly what the in-memory build serves,
// rejection (with a Status, never a crash) of corrupt / truncated /
// wrong-version files, the indexes decoding each packed list once per
// session, and the lazy corpus backing that defers document decodes until
// a query touches them and content decodes until something reads text or
// attributes.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/log.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/flexpath.h"
#include "ir/engine.h"
#include "ir/ft_expr.h"
#include "ir/inverted_index.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "storage/codec.h"
#include "storage/format.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xml/corpus.h"
#include "xml/type_hierarchy.h"

namespace flexpath {
namespace {

using storage::GetDeltaChain;
using storage::GetVarint;
using storage::PutDeltaChain;
using storage::PutVarint;
using storage::StorageReader;
using storage::WritePackedCorpus;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

Counter* ColdBlockDecodes() {
  return MetricsRegistry::Global().counter("storage.cold_block_decodes");
}

// --- Codec -----------------------------------------------------------------

TEST(StorageCodecTest, VarintRoundTripEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (uint64_t{1} << 32) - 1,
                             uint64_t{1} << 32,
                             uint64_t{1} << 63,
                             ~uint64_t{0}};
  std::string buf;
  for (uint64_t v : values) PutVarint(v, &buf);
  size_t pos = 0;
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint(buf, &pos, &got).ok());
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(StorageCodecTest, VarintRejectsTruncationAndOverflow) {
  size_t pos = 0;
  uint64_t out = 0;
  EXPECT_FALSE(GetVarint("", &pos, &out).ok());
  // A continuation bit with no following byte.
  pos = 0;
  EXPECT_FALSE(GetVarint(std::string("\x80", 1), &pos, &out).ok());
  // 10 continuation bytes followed by a value byte overflows 64 bits.
  std::string over(10, '\xFF');
  over.push_back('\x7F');
  pos = 0;
  EXPECT_FALSE(GetVarint(over, &pos, &out).ok());
}

/// Decodes a whole `count`-value chain as the reader decodes an element
/// table: the chain, then no bytes left over.
template <typename T>
Status DecodeWholeChain(std::string_view bytes, uint64_t count,
                        std::vector<T>* out) {
  size_t pos = 0;
  FLEXPATH_RETURN_IF_ERROR(GetDeltaChain(bytes, &pos, count, out));
  if (pos != bytes.size()) return Status::InvalidArgument("trailing bytes");
  return Status::OK();
}

TEST(StorageCodecTest, DeltaChainRoundTrips) {
  Rng rng(31337);
  for (size_t n : {size_t{1}, size_t{2}, size_t{128}, size_t{129},
                   size_t{3 * 128 + 7}}) {
    std::vector<uint64_t> keys;
    uint64_t k = rng.Uniform(1000);
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(k);
      k += 1 + rng.Uniform(1000);
    }
    std::string bytes;
    ASSERT_TRUE(PutDeltaChain(keys, &bytes).ok()) << n;
    std::vector<uint64_t> back;
    ASSERT_TRUE(DecodeWholeChain(bytes, n, &back).ok()) << n;
    EXPECT_EQ(back, keys) << n;
  }
}

TEST(StorageCodecTest, DeltaChainRoundTripsKeysNear2To64) {
  const uint64_t max = UINT64_MAX;
  for (const std::vector<uint64_t>& keys :
       {std::vector<uint64_t>{max}, std::vector<uint64_t>{0, max},
        std::vector<uint64_t>{max - 2, max - 1, max}}) {
    std::string bytes;
    ASSERT_TRUE(PutDeltaChain(keys, &bytes).ok());
    std::vector<uint64_t> back;
    ASSERT_TRUE(DecodeWholeChain(bytes, keys.size(), &back).ok());
    EXPECT_EQ(back, keys);
  }
  // A delta that carries the key past 2^64 - 1.
  std::string over;
  PutVarint(max - 1, &over);
  PutVarint(2, &over);
  std::vector<uint64_t> out;
  EXPECT_FALSE(DecodeWholeChain(over, 2, &out).ok());
}

TEST(StorageCodecTest, DeltaChainHoldsPositionsUpTo2To32Minus1) {
  const uint32_t max = UINT32_MAX;
  const std::vector<uint32_t> positions = {0, max - 1, max};
  std::string bytes;
  ASSERT_TRUE(PutDeltaChain(positions, &bytes).ok());
  std::vector<uint32_t> back;
  ASSERT_TRUE(DecodeWholeChain(bytes, positions.size(), &back).ok());
  EXPECT_EQ(back, positions);
  // One past 2^32 - 1, whether absolute or reached by a delta, does not
  // fit a position.
  std::string absolute;
  PutVarint(uint64_t{max} + 1, &absolute);
  std::vector<uint32_t> out;
  EXPECT_FALSE(DecodeWholeChain(absolute, 1, &out).ok());
  std::string by_delta;
  PutVarint(max, &by_delta);
  PutVarint(1, &by_delta);
  out.clear();
  EXPECT_FALSE(DecodeWholeChain(by_delta, 2, &out).ok());
}

TEST(StorageCodecTest, DeltaChainRejectsNonIncreasingValues) {
  std::string bytes;
  EXPECT_FALSE(PutDeltaChain(std::vector<uint64_t>{5, 5}, &bytes).ok());
  bytes.clear();
  EXPECT_FALSE(PutDeltaChain(std::vector<uint64_t>{5, 4}, &bytes).ok());
  // A repeat at the 128th value, where format v4 restarted its chain.
  std::vector<uint64_t> repeat;
  for (uint64_t i = 0; i < 128; ++i) repeat.push_back(i);
  repeat.push_back(127);
  bytes.clear();
  EXPECT_FALSE(PutDeltaChain(repeat, &bytes).ok());
  bytes.clear();
  EXPECT_FALSE(PutDeltaChain(std::vector<uint32_t>{9, 3}, &bytes).ok());
}

TEST(StorageCodecTest, GetDeltaChainRejectsCorruption) {
  std::vector<uint64_t> keys;
  for (uint64_t i = 1; i <= 200; ++i) keys.push_back(i * 3);
  std::string bytes;
  ASSERT_TRUE(PutDeltaChain(keys, &bytes).ok());

  std::vector<uint64_t> out;
  // Wrong expected count (both directions).
  EXPECT_FALSE(DecodeWholeChain(bytes, keys.size() - 1, &out).ok());
  out.clear();
  EXPECT_FALSE(DecodeWholeChain(bytes, keys.size() + 1, &out).ok());
  // A count past the bytes left fails before anything is allocated.
  size_t pos = 0;
  out.clear();
  EXPECT_FALSE(GetDeltaChain(bytes, &pos, uint64_t{1} << 60, &out).ok());
  EXPECT_TRUE(out.empty());
  // Truncation mid-stream.
  out.clear();
  EXPECT_FALSE(DecodeWholeChain(
                   std::string_view(bytes).substr(0, bytes.size() / 2),
                   keys.size(), &out)
                   .ok());
  // Trailing garbage.
  out.clear();
  EXPECT_FALSE(DecodeWholeChain(bytes + "x", keys.size(), &out).ok());
  // A zero delta (decodes to a non-increasing key) is structural
  // corruption: [first=1][delta=0].
  std::string zero_delta;
  PutVarint(1, &zero_delta);
  PutVarint(0, &zero_delta);
  out.clear();
  EXPECT_FALSE(DecodeWholeChain(zero_delta, 2, &out).ok());
}

// --- Writer → reader round trip -------------------------------------------

// One corpus, packed and re-opened; every reader surface must serve
// exactly what the in-memory structures built over the same corpus
// serve. This is the storage-level half of the byte-identity contract
// (the query-level half lives in differential_test.cc).
class PackedRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20260807);
    for (int i = 0; i < 5; ++i) {
      corpus_.Add(
          testing_util::RandomDocument(&rng, corpus_.tags(), 120));
    }
    XMarkOptions xmark;
    xmark.target_bytes = 60000;
    xmark.seed = 11;
    Result<Document> doc = GenerateXMark(xmark, corpus_.tags());
    ASSERT_TRUE(doc.ok());
    corpus_.Add(std::move(doc).value());

    path_ = TempPath("storage_roundtrip.fxp");
    ASSERT_TRUE(WritePackedCorpus(corpus_, tok_, path_).ok());
    Result<std::shared_ptr<StorageReader>> reader =
        StorageReader::Open(path_);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    reader_ = std::move(reader).value();
  }

  void TearDown() override { std::remove(path_.c_str()); }

  Corpus corpus_;
  TokenizerOptions tok_;
  std::string path_;
  std::shared_ptr<StorageReader> reader_;
};

TEST_F(PackedRoundTripTest, HeaderAndTagsMatch) {
  EXPECT_EQ(reader_->DocCount(), corpus_.size());
  EXPECT_EQ(reader_->header().total_nodes, corpus_.TotalNodes());
  EXPECT_EQ(reader_->header().tag_count,
            std::as_const(corpus_).tags().size());
  EXPECT_EQ(reader_->tokenizer_options().stem, tok_.stem);
  EXPECT_EQ(reader_->tokenizer_options().drop_stopwords,
            tok_.drop_stopwords);

  TagDict dict;
  ASSERT_TRUE(reader_->LoadTags(&dict).ok());
  ASSERT_EQ(dict.size(), std::as_const(corpus_).tags().size());
  for (TagId t = 0; t < dict.size(); ++t) {
    EXPECT_EQ(dict.Name(t), std::as_const(corpus_).tags().Name(t));
  }
  // Positional ids require an empty dictionary.
  TagDict nonempty;
  nonempty.Intern("pre-existing");
  EXPECT_FALSE(reader_->LoadTags(&nonempty).ok());
}

TEST_F(PackedRoundTripTest, DocumentsMaterializeWithFullFidelity) {
  for (DocId d = 0; d < corpus_.size(); ++d) {
    const Document& expect = corpus_.doc(d);
    EXPECT_EQ(reader_->DocNodeCount(d), expect.size());
    Result<Document> got = reader_->MaterializeDocument(d);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << " doc " << d;
    ASSERT_EQ(got->size(), expect.size()) << "doc " << d;
    // The structure decode carries no content; it is decoded separately.
    EXPECT_FALSE(got->has_content());
    Result<std::vector<NodeContent>> content = reader_->MaterializeContent(d);
    ASSERT_TRUE(content.ok()) << content.status().ToString() << " doc " << d;
    ASSERT_EQ(content->size(), expect.size()) << "doc " << d;
    for (NodeId n = 0; n < expect.size(); ++n) {
      EXPECT_EQ(expect.tag(n), got->tag(n));
      const NodeSpan& sa = expect.span(n);
      const NodeSpan& sb = got->span(n);
      EXPECT_EQ(sa.parent, sb.parent);
      EXPECT_EQ(sa.start, sb.start);
      EXPECT_EQ(sa.end, sb.end);
      EXPECT_EQ(sa.level, sb.level);
      const NodeContent& ca = expect.content(n);
      const NodeContent& cb = (*content)[n];
      EXPECT_EQ(ca.text, cb.text);
      ASSERT_EQ(ca.attrs.size(), cb.attrs.size());
      for (size_t i = 0; i < ca.attrs.size(); ++i) {
        EXPECT_EQ(ca.attrs[i].name, cb.attrs[i].name);
        EXPECT_EQ(ca.attrs[i].value, cb.attrs[i].value);
      }
    }
  }
}

TEST_F(PackedRoundTripTest, ElementTablesMatchCorpusScan) {
  // Reference tables straight from the corpus: per tag, NodeRefs in
  // (doc, node) order — the exact order the in-memory ElementIndex
  // serves.
  std::map<TagId, std::vector<NodeRef>> expect;
  for (DocId d = 0; d < corpus_.size(); ++d) {
    const Document& doc = corpus_.doc(d);
    for (NodeId n = 0; n < doc.size(); ++n) {
      expect[doc.tag(n)].push_back(NodeRef{d, n});
    }
  }
  for (TagId t = 0; t < std::as_const(corpus_).tags().size(); ++t) {
    const std::vector<NodeRef>& want = expect[t];
    EXPECT_EQ(reader_->TagList(t), want) << "tag " << t;
  }
}

TEST_F(PackedRoundTripTest, PostingsMatchInMemoryIndex) {
  InvertedIndex mem(&corpus_, tok_);
  size_t terms_checked = 0;
  mem.ForEachTerm([&](const std::string& term, const PostingList& list) {
    ++terms_checked;
    uint32_t df = 0;
    ASSERT_TRUE(reader_->TermInfo(term, &df)) << term;
    EXPECT_EQ(df, list.postings.size()) << term;

    std::optional<PostingList> got = reader_->FindPostings(term);
    ASSERT_TRUE(got.has_value()) << term;
    ASSERT_EQ(got->postings.size(), list.postings.size()) << term;
    for (size_t i = 0; i < list.postings.size(); ++i) {
      EXPECT_EQ(got->postings[i].node, list.postings[i].node) << term;
      EXPECT_EQ(got->postings[i].tf, list.postings[i].tf) << term;
      EXPECT_EQ(got->postings[i].positions, list.postings[i].positions)
          << term;
    }
  });
  EXPECT_EQ(terms_checked, reader_->header().term_count);
  uint32_t df = 0;
  EXPECT_FALSE(reader_->TermInfo("no-such-term-anywhere", &df));
  EXPECT_FALSE(reader_->FindPostings("no-such-term-anywhere").has_value());
}

TEST_F(PackedRoundTripTest, StatsTablesMatchExport) {
  DocumentStats mem(&corpus_);
  const DocumentStats::Tables expect = mem.ExportTables();
  Result<DocumentStats::Tables> got = reader_->LoadStatsTables();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->tag_counts, expect.tag_counts);
  EXPECT_EQ(got->pc_counts, expect.pc_counts);
  EXPECT_EQ(got->ad_counts, expect.ad_counts);
  EXPECT_EQ(got->pc_exists, expect.pc_exists);
  EXPECT_EQ(got->ad_exists, expect.ad_exists);
}

// A packed session decodes each element table and posting list once: the
// first Scan or Find decodes the list (one storage.cold_block_decodes),
// every later call returns the same list without decoding, and a query
// run again decodes nothing.
TEST_F(PackedRoundTripTest, SessionDecodesEachListOnce) {
  Counter* decodes = ColdBlockDecodes();
  Corpus backed;
  ASSERT_TRUE(reader_->LoadTags(backed.tags()).ok());
  backed.AttachBacking(reader_);
  ElementIndex index(&backed, nullptr, reader_);
  for (TagId t = 0; t < reader_->header().tag_count; ++t) {
    const uint64_t before = decodes->Value();
    const std::vector<NodeRef>& first = index.Scan(t);
    EXPECT_EQ(decodes->Value() - before, 1u) << "tag " << t;
    EXPECT_EQ(&index.Scan(t), &first) << "tag " << t;
    EXPECT_EQ(decodes->Value() - before, 1u) << "tag " << t;
  }

  InvertedIndex postings(&backed, tok_, reader_);
  for (const char* term : {"gold", "iron", "salt"}) {
    const uint64_t before = decodes->Value();
    const PostingList* first = postings.Find(term);
    ASSERT_NE(first, nullptr) << term;
    EXPECT_FALSE(first->postings.empty()) << term;
    EXPECT_EQ(decodes->Value() - before, 1u) << term;
    EXPECT_EQ(postings.Find(term), first) << term;
    (void)postings.Idf(term);
    EXPECT_EQ(decodes->Value() - before, 1u) << term;
  }
  EXPECT_EQ(postings.Find("no-such-term-anywhere"), nullptr);

  FlexPath packed;
  ASSERT_TRUE(packed.OpenPacked(path_).ok());
  TopKOptions opts;
  opts.k = 10;
  opts.num_threads = 1;
  const char* const queries[] = {"//a[./b and .contains(\"gold\")]",
                                 "//c[./d and .contains(iron or salt)]"};
  const uint64_t cold = decodes->Value();
  for (const char* xpath : queries) {
    ASSERT_TRUE(packed.Query(xpath, opts).ok()) << xpath;
  }
  const uint64_t warm = decodes->Value();
  EXPECT_GT(warm, cold);
  for (const char* xpath : queries) {
    ASSERT_TRUE(packed.Query(xpath, opts).ok()) << xpath;
  }
  EXPECT_EQ(decodes->Value(), warm);
}

// Eight threads scanning the same tags and finding the same terms at once,
// each in its own order, get one decode of each list and one address for
// it.
TEST_F(PackedRoundTripTest, ConcurrentScansAndFindsDecodeEachListOnce) {
  Corpus backed;
  ASSERT_TRUE(reader_->LoadTags(backed.tags()).ok());
  backed.AttachBacking(reader_);
  ElementIndex index(&backed, nullptr, reader_);
  InvertedIndex postings(&backed, tok_, reader_);
  const size_t tags = static_cast<size_t>(reader_->header().tag_count);
  const std::vector<std::string> terms = {"gold", "iron", "salt", "red"};
  for (const std::string& term : terms) {
    uint32_t df = 0;
    ASSERT_TRUE(reader_->TermInfo(term, &df)) << term;
  }

  constexpr size_t kThreads = 8;
  const size_t lists = tags + terms.size();
  std::vector<std::vector<const void*>> seen(
      kThreads, std::vector<const void*>(lists));
  const uint64_t before = ColdBlockDecodes()->Value();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (size_t k = 0; k < lists; ++k) {
        const size_t j = (k + i * 7) % lists;
        seen[i][j] = j < tags ? static_cast<const void*>(
                                    &index.Scan(static_cast<TagId>(j)))
                              : postings.Find(terms[j - tags]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ColdBlockDecodes()->Value() - before, lists);
  for (size_t i = 1; i < kThreads; ++i) EXPECT_EQ(seen[i], seen[0]);
}

TEST_F(PackedRoundTripTest, InspectJsonNamesEverySection) {
  const std::string json = reader_->InspectJson();
  for (const char* field :
       {"\"magic\"", "\"version\"", "\"page_size\"", "\"sections\"",
        "tag_names", "doc_dir", "node_streams", "node_content", "elem_dir",
        "elem_blocks", "stats", "term_dir", "term_strings", "post_blocks"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
  // Format v5 has no element or posting skip table, and its header no
  // copy of total_nodes.
  EXPECT_NE(json.find("\"version\": 5"), std::string::npos);
  EXPECT_EQ(json.find("elem_skips"), std::string::npos);
  EXPECT_EQ(json.find("post_skips"), std::string::npos);
  EXPECT_EQ(json.find("total_elements"), std::string::npos);
}

// --- Corrupt / truncated / wrong-version files -----------------------------

class PackedCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto corpus = testing_util::CorpusFromXml({
        "<site><item id=\"i1\"><name>gold ring</name></item>"
        "<item><name>gold coin</name></item></site>",
        "<site><item><name>silver coin</name></item></site>",
    });
    path_ = TempPath("storage_corrupt.fxp");
    ASSERT_TRUE(WritePackedCorpus(*corpus, TokenizerOptions{}, path_).ok());
    bytes_ = ReadFileBytes(path_);
    ASSERT_GE(bytes_.size(), sizeof(storage::FileHeader));
  }

  void TearDown() override { std::remove(path_.c_str()); }

  // Writes `mutated` and expects Open to fail with `needle` in the
  // message.
  void ExpectOpenFails(const std::string& mutated,
                       const std::string& needle) {
    WriteFileBytes(path_, mutated);
    Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
    ASSERT_FALSE(r.ok()) << "expected failure containing: " << needle;
    EXPECT_NE(r.status().ToString().find(needle), std::string::npos)
        << r.status().ToString();
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(PackedCorruptionTest, RejectsBadMagic) {
  std::string m = bytes_;
  m[0] ^= 0x40;
  ExpectOpenFails(m, "bad magic");
}

TEST_F(PackedCorruptionTest, RejectsUnsupportedVersion) {
  std::string m = bytes_;
  uint32_t version = 99;
  std::memcpy(&m[offsetof(storage::FileHeader, version)], &version,
              sizeof(version));
  ExpectOpenFails(m, "unsupported packed corpus version 99");
}

TEST_F(PackedCorruptionTest, RejectsForeignEndianness) {
  std::string m = bytes_;
  uint32_t swapped = __builtin_bswap32(storage::kEndianTag);
  std::memcpy(&m[offsetof(storage::FileHeader, endian_tag)], &swapped,
              sizeof(swapped));
  ExpectOpenFails(m, "endianness");
}

TEST_F(PackedCorruptionTest, RejectsTruncation) {
  ExpectOpenFails(bytes_.substr(0, bytes_.size() - 1), "truncated");
  ExpectOpenFails(bytes_.substr(0, bytes_.size() / 2), "truncated");
  ExpectOpenFails(bytes_.substr(0, 16), "");
}

TEST_F(PackedCorruptionTest, RejectsMissingFile) {
  EXPECT_FALSE(StorageReader::Open(path_ + ".does-not-exist").ok());
}

// Section records of a packed `file`, by section id.
std::map<uint32_t, storage::SectionRecord> SectionsOf(const std::string& file) {
  storage::FileHeader header;
  std::memcpy(&header, file.data(), sizeof(header));
  std::map<uint32_t, storage::SectionRecord> sections;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    storage::SectionRecord rec;
    std::memcpy(&rec,
                file.data() + sizeof(header) + i * sizeof(rec), sizeof(rec));
    sections[rec.id] = rec;
  }
  return sections;
}

// Directory record of document `doc` in a packed `file`, and its byte
// offset there.
size_t DocDirOffset(const std::string& file, DocId doc) {
  return SectionsOf(file)[storage::kSecDocDir].offset +
         doc * sizeof(storage::DocDirRecord);
}

storage::DocDirRecord DocDirOf(const std::string& file, DocId doc) {
  storage::DocDirRecord rec;
  std::memcpy(&rec, file.data() + DocDirOffset(file, doc), sizeof(rec));
  return rec;
}

// `file` with document `doc`'s directory record changed by `edit`.
template <typename Edit>
std::string WithDocDir(std::string file, DocId doc, Edit edit) {
  storage::DocDirRecord rec = DocDirOf(file, doc);
  edit(&rec);
  std::memcpy(&file[DocDirOffset(file, doc)], &rec, sizeof(rec));
  return file;
}

// `file` with byte `at` of document `doc`'s stream in `section` (structure
// or content) overwritten: it must hold `was` and becomes `value`.
std::string PatchDoc(std::string file, DocId doc, uint32_t section, size_t at,
                     char was, char value) {
  const storage::DocDirRecord rec = DocDirOf(file, doc);
  const size_t base =
      SectionsOf(file)[section].offset +
      (section == storage::kSecNodeStreams ? rec.offset : rec.content_offset);
  EXPECT_EQ(file[base + at], was) << "section " << section << " byte " << at;
  file[base + at] = value;
  return file;
}

// One corrupted copy of the fixture file, and the error it must give
// (none for the clean file).
struct CorruptCase {
  const char* what;
  std::string file;
  const char* needle;
};

// Doc 0 of the fixture as its structure stream, one single-byte varint
// per field, (tag, level) per node (tags: site 0, item 1, id 2, name 3):
//   site(0, 0) item(1, 1) name(3, 2) item(1, 1) name(3, 2)
// so byte 2n is node n's tag and byte 2n + 1 its level. Each case breaks
// the level rule, the tag range or the stream framing; every other
// document still decodes, and so does the unpatched file.
TEST_F(PackedCorruptionTest, RejectsStructureThatBreaksTheLevelRule) {
  auto patch = [&](size_t at, char was, char value) {
    return PatchDoc(bytes_, 0, storage::kSecNodeStreams, at, was, value);
  };
  const std::vector<CorruptCase> cases = {
      {"root not at level 0", patch(1, 0, 1), "corrupt node record"},
      {"level jump of two", patch(5, 2, 3), "corrupt node record"},
      {"second root", patch(7, 1, 0), "corrupt node record"},
      {"tag out of range", patch(2, 1, 4), "corrupt node record"},
      {"truncated stream", patch(9, 2, '\x82'), "truncated node stream"},
      {"trailing bytes",
       WithDocDir(bytes_, 0, [](storage::DocDirRecord* r) { ++r->length; }),
       "trailing bytes in node stream"},
      {"fewer nodes than the stream holds",
       WithDocDir(bytes_, 0,
                  [](storage::DocDirRecord* r) { --r->node_count; }),
       "trailing bytes in node stream"},
      // One more node reads the next document's root as a second root.
      {"more nodes than the stream holds",
       WithDocDir(bytes_, 0,
                  [](storage::DocDirRecord* r) {
                    ++r->node_count;
                    r->length += 2;
                  }),
       "corrupt node record"},
  };
  for (const CorruptCase& c : cases) {
    SCOPED_TRACE(c.what);
    WriteFileBytes(path_, c.file);
    Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Result<Document> doc = (*r)->MaterializeDocument(0);
    ASSERT_FALSE(doc.ok());
    EXPECT_EQ(doc.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(doc.status().ToString().find(c.needle), std::string::npos)
        << doc.status().ToString();
    EXPECT_TRUE((*r)->MaterializeDocument(1).ok());
  }
  // A node count the stream cannot hold (two bytes a node) is rejected
  // when the directory is validated.
  ExpectOpenFails(
      WithDocDir(bytes_, 0, [](storage::DocDirRecord* r) { ++r->node_count; }),
      "node stream out of bounds for doc 0");

  WriteFileBytes(path_, bytes_);
  Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE((*r)->MaterializeDocument(0).ok());
}

// A document whose structure fails to decode matches nothing. Document
// 1's root claims level 1, so materializing it fails (with a log line),
// yet the element tables, the postings and the directory's node counts
// still name its nodes: no step-0 seed, probe candidate, contains posting
// or negated-contains universe node may come from it, and every query
// answers from document 0 alone.
TEST_F(PackedCorruptionTest, UndecodableDocumentMatchesNothing) {
  WriteFileBytes(path_,
                 PatchDoc(bytes_, 1, storage::kSecNodeStreams, 1, 0, 1));
  std::vector<std::string> logged;
  Logger::Global().SetCaptureSink(
      [&](std::string_view line) { logged.emplace_back(line); });
  FlexPath packed;
  ASSERT_TRUE(packed.OpenPacked(path_).ok());
  TopKOptions opts;
  opts.k = 10;
  const std::vector<std::pair<std::string, std::vector<NodeRef>>> cases = {
      {"//item[./name]", {{0, 1}, {0, 3}}},
      {"//name[.contains(\"coin\")]", {{0, 4}}},
      {"//name", {{0, 2}, {0, 4}}},
      {"//item[.contains(not \"ring\")]", {{0, 3}}},
  };
  for (const auto& [xpath, want] : cases) {
    SCOPED_TRACE(xpath);
    Result<std::vector<QueryAnswer>> answers = packed.Query(xpath, opts);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    std::vector<NodeRef> got;
    for (const QueryAnswer& a : *answers) got.push_back(a.node);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
  }
  Logger::Global().SetCaptureSink(nullptr);
  size_t failures = 0;
  for (const std::string& line : logged) {
    failures += line.find("document materialization failed") !=
                std::string::npos;
  }
  EXPECT_EQ(failures, 1u);
}

// NOT complements over decoded nodes only: document 1 fails to decode, so
// none of its nodes satisfies a negation, though none of them holds the
// negated term ("gold") or only its unreadable postings do ("silver").
TEST_F(PackedCorruptionTest, NegationSetsNoBitOfAnUndecodableDocument) {
  WriteFileBytes(path_,
                 PatchDoc(bytes_, 1, storage::kSecNodeStreams, 1, 0, 1));
  Logger::Global().SetCaptureSink([](std::string_view) {});
  Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Corpus packed;
  ASSERT_TRUE((*r)->LoadTags(packed.tags()).ok());
  packed.AttachBacking(*r);
  IrEngine engine(&packed, TokenizerOptions{}, *r);
  ASSERT_EQ(packed.DocSize(1), 3u);
  for (const char* term : {"gold", "silver", "zeppelin"}) {
    SCOPED_TRACE(term);
    const std::shared_ptr<const ContainsResult> result =
        engine.Evaluate(FtExpr::Not(FtExpr::Term(term)));
    for (NodeId n = 0; n < packed.DocSize(1); ++n) {
      EXPECT_FALSE(result->Satisfies(NodeRef{1, n})) << "node " << n;
    }
    EXPECT_EQ(result->count(), std::string(term) == "gold" ? 0u : 5u);
  }
  EXPECT_TRUE(packed.doc(1).empty());
  Logger::Global().SetCaptureSink(nullptr);
}

// Doc 0 of the fixture as its content stream, per node the text, the
// attribute count, then (name, value) per attribute:
//   site: 00 00 | item: 00 01 02 02 'i' '1' | name: 09 "gold ring" 00 |
//   item: 00 00 | name: 09 "gold coin" 00
// A corrupt content stream empties only that document's content, with a
// log line: its structure still answers queries, attribute predicates on
// it match nothing and its snippets are empty, while document 1 is served
// as before.
TEST_F(PackedCorruptionTest, CorruptContentEmptiesOnlyThatDocument) {
  auto patch = [&](size_t at, char was, char value) {
    return PatchDoc(bytes_, 0, storage::kSecNodeContent, at, was, value);
  };
  const std::vector<CorruptCase> cases = {
      {"bad attribute name", patch(4, 2, 0x7f), "corrupt attribute name"},
      {"truncated string", patch(21, 9, 0x7f), "truncated string"},
      {"trailing bytes",
       WithDocDir(bytes_, 0,
                  [](storage::DocDirRecord* r) { ++r->content_length; }),
       "trailing bytes in node content"},
      {"clean", bytes_, nullptr},
  };
  for (const CorruptCase& c : cases) {
    SCOPED_TRACE(c.what);
    WriteFileBytes(path_, c.file);
    Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    Result<std::vector<NodeContent>> content = (*r)->MaterializeContent(0);
    EXPECT_TRUE((*r)->MaterializeContent(1).ok());
    if (c.needle != nullptr) {
      ASSERT_FALSE(content.ok());
      EXPECT_NE(content.status().ToString().find(c.needle), std::string::npos)
          << content.status().ToString();
    } else {
      ASSERT_TRUE(content.ok()) << content.status().ToString();
    }

    std::vector<std::string> logged;
    Logger::Global().SetCaptureSink(
        [&](std::string_view line) { logged.emplace_back(line); });
    FlexPath packed;
    ASSERT_TRUE(packed.OpenPacked(path_).ok());
    TopKOptions opts;
    opts.k = 10;
    Result<std::vector<QueryAnswer>> by_attr =
        packed.Query("//item[@id='i1']", opts);
    Result<std::vector<QueryAnswer>> by_structure =
        packed.Query("//item[./name]", opts);
    Logger::Global().SetCaptureSink(nullptr);
    ASSERT_TRUE(by_attr.ok()) << by_attr.status().ToString();
    ASSERT_TRUE(by_structure.ok()) << by_structure.status().ToString();
    const bool corrupt = c.needle != nullptr;
    EXPECT_EQ(by_attr->size(), corrupt ? 0u : 1u);
    std::vector<std::pair<NodeRef, std::string>> got;
    for (const QueryAnswer& a : *by_structure) {
      got.emplace_back(a.node, a.snippet);
    }
    std::sort(got.begin(), got.end());
    const std::vector<std::pair<NodeRef, std::string>> want = {
        {NodeRef{0, 1}, corrupt ? "" : "gold ring"},
        {NodeRef{0, 3}, corrupt ? "" : "gold coin"},
        {NodeRef{1, 1}, "silver coin"},
    };
    EXPECT_EQ(got, want);
    size_t failures = 0;
    for (const std::string& line : logged) {
      failures += line.find("document content decode failed") !=
                  std::string::npos;
    }
    EXPECT_EQ(failures, corrupt ? 1u : 0u);
  }
}

// A v1 file (seven varints, text and attributes per node), a v2 file
// (with the element skip table) or a v3 file (with the posting skip
// table) cannot be read as v4; the reader says to re-pack it rather than
// misreading it.
TEST_F(PackedCorruptionTest, RejectsVersion1WithRepackMessage) {
  for (const uint32_t version : {1u, 2u, 3u, 4u}) {
    std::string m = bytes_;
    std::memcpy(&m[offsetof(storage::FileHeader, version)], &version,
                sizeof(version));
    ExpectOpenFails(m, "version " + std::to_string(version) +
                           " is no longer supported");
    ExpectOpenFails(m, "re-pack");
  }
}

// An element-table key past its document (node 100 of a five-node
// document) would index the document's node arrays out of bounds. The
// table decodes empty instead, like a corrupt posting list, so the tag
// matches nothing.
TEST_F(PackedCorruptionTest, RejectsElementKeysPastTheirDocument) {
  std::map<uint32_t, storage::SectionRecord> sections = SectionsOf(bytes_);
  Result<std::shared_ptr<StorageReader>> pristine = StorageReader::Open(path_);
  ASSERT_TRUE(pristine.ok());
  TagDict tags;
  ASSERT_TRUE((*pristine)->LoadTags(&tags).ok());
  const TagId item = tags.Lookup("item");
  ASSERT_NE(item, kInvalidTag);
  storage::ElemDirRecord rec;
  std::memcpy(&rec,
              bytes_.data() + sections[storage::kSecElemDir].offset +
                  item * sizeof(rec),
              sizeof(rec));
  ASSERT_EQ(rec.count, 3u);
  // item's keys are (0, 1), (0, 3), (1, 1): the first is the varint 1.
  std::string m = bytes_;
  const size_t first_key = sections[storage::kSecElemBlocks].offset + rec.offset;
  ASSERT_EQ(m[first_key], 1);
  m[first_key] = 100;
  WriteFileBytes(path_, m);

  Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)->TagList(item).empty());

  FlexPath packed;
  ASSERT_TRUE(packed.OpenPacked(path_).ok());
  TopKOptions opts;
  opts.k = 10;
  Result<std::vector<QueryAnswer>> answers =
      packed.Query("//item[./name]", opts);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_TRUE(answers->empty());
  Result<std::vector<QueryAnswer>> names = packed.Query("//name", opts);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  EXPECT_EQ(names->size(), 3u);
}

// An element directory count beyond its block bytes (each key takes at
// least one varint byte) would make TagList reserve an unbounded vector;
// Open refuses the file instead.
TEST_F(PackedCorruptionTest, RejectsElementCountPastItsBlocks) {
  std::map<uint32_t, storage::SectionRecord> sections = SectionsOf(bytes_);
  Result<std::shared_ptr<StorageReader>> pristine = StorageReader::Open(path_);
  ASSERT_TRUE(pristine.ok());
  TagDict tags;
  ASSERT_TRUE((*pristine)->LoadTags(&tags).ok());
  const TagId item = tags.Lookup("item");
  ASSERT_NE(item, kInvalidTag);
  const size_t at = sections[storage::kSecElemDir].offset +
                    item * sizeof(storage::ElemDirRecord) +
                    offsetof(storage::ElemDirRecord, count);
  for (const uint64_t count : {uint64_t{1} << 60, uint64_t{1000}}) {
    std::string m = bytes_;
    std::memcpy(&m[at], &count, sizeof(count));
    ExpectOpenFails(m, "element directory entry");
  }
}

// Likewise a term's df beyond its posting bytes (each posting takes at
// least a key, a tf and one position byte) would make FindPostings
// reserve an unbounded vector.
TEST_F(PackedCorruptionTest, RejectsDocumentFrequencyPastItsPostings) {
  std::map<uint32_t, storage::SectionRecord> sections = SectionsOf(bytes_);
  storage::TermDirRecord term;
  std::memcpy(&term, bytes_.data() + sections[storage::kSecTermDir].offset,
              sizeof(term));
  const size_t at = sections[storage::kSecTermDir].offset +
                    offsetof(storage::TermDirRecord, df);
  const uint32_t just_past = static_cast<uint32_t>(term.post_length / 3 + 1);
  for (const uint32_t df : {uint32_t{UINT32_MAX}, just_past}) {
    std::string m = bytes_;
    std::memcpy(&m[at], &df, sizeof(df));
    ExpectOpenFails(m, "term directory entry 0 out of bounds");
  }
}

TEST_F(PackedCorruptionTest, RejectsPostingsOutOfOrderOrRange) {
  // One term, "gold", with 266 postings in one delta chain.
  std::vector<std::string> docs;
  for (size_t i = 0; i < 266; ++i) {
    docs.push_back("<site><item><name>gold</name></item></site>");
  }
  auto corpus = testing_util::CorpusFromXml(docs);
  ASSERT_TRUE(WritePackedCorpus(*corpus, TokenizerOptions{}, path_).ok());
  const std::string bytes = ReadFileBytes(path_);
  std::map<uint32_t, storage::SectionRecord> sections = SectionsOf(bytes);
  ASSERT_EQ(sections[storage::kSecTermDir].length,
            sizeof(storage::TermDirRecord));
  storage::TermDirRecord term;
  std::memcpy(&term, bytes.data() + sections[storage::kSecTermDir].offset,
              sizeof(term));
  ASSERT_EQ(term.df, docs.size());
  const std::string_view postings(
      bytes.data() + sections[storage::kSecPostBlocks].offset +
          term.post_offset,
      term.post_length);

  // Each posting is at node 2 of its document, the name element, so the
  // key chain opens with the absolute key (doc 0, node 2) and then steps
  // one document, the five-byte delta 2^32, per posting. Writing a zero
  // delta there in as many bytes (a padded varint) keeps the chain
  // readable but repeats a key.
  std::string doc_step;
  PutVarint(uint64_t{1} << 32, &doc_step);
  ASSERT_EQ(postings.substr(1, doc_step.size()), doc_step);
  const std::string zero_delta("\x80\x80\x80\x80\x00", 5);
  ASSERT_EQ(zero_delta.size(), doc_step.size());
  std::string backwards = bytes;
  backwards.replace(sections[storage::kSecPostBlocks].offset +
                        term.post_offset + 1,
                    zero_delta.size(), zero_delta);
  // The first key is (doc 0, node 2), stored as the single-byte varint 2;
  // node 5 is past the end of document 0.
  std::string past_end = bytes;
  const size_t first_key = sections[storage::kSecPostBlocks].offset +
                           term.post_offset;
  ASSERT_EQ(past_end[first_key], 2);
  past_end[first_key] = 5;
  // The list is decoded until df postings are read: it must end exactly
  // there, neither short of bytes nor with bytes left.
  const size_t term_at = sections[storage::kSecTermDir].offset;
  std::string run_out = bytes;
  const uint64_t short_length = term.post_length - 1;
  std::memcpy(&run_out[term_at + offsetof(storage::TermDirRecord, post_length)],
              &short_length, sizeof(short_length));
  std::string left_over = bytes;
  const uint32_t fewer = term.df - 1;
  std::memcpy(&left_over[term_at + offsetof(storage::TermDirRecord, df)],
              &fewer, sizeof(fewer));

  for (const std::string* m : {&backwards, &past_end, &run_out, &left_over}) {
    WriteFileBytes(path_, *m);
    Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::optional<PostingList> list = (*r)->FindPostings("gold");
    ASSERT_TRUE(list.has_value());
    EXPECT_TRUE(list->postings.empty());
    // A contains predicate over the packed corpus then matches nothing.
    Corpus packed;
    ASSERT_TRUE((*r)->LoadTags(packed.tags()).ok());
    packed.AttachBacking(*r);
    IrEngine engine(&packed, TokenizerOptions{}, *r);
    EXPECT_EQ(engine.Evaluate(FtExpr::Term("gold"))->count(), 0u);
  }

  // The unpatched file decodes the whole list.
  WriteFileBytes(path_, bytes);
  Result<std::shared_ptr<StorageReader>> r = StorageReader::Open(path_);
  ASSERT_TRUE(r.ok());
  std::optional<PostingList> list = (*r)->FindPostings("gold");
  ASSERT_TRUE(list.has_value());
  EXPECT_EQ(list->postings.size(), docs.size());
}

// --- Lazy corpus backing through FlexPath ----------------------------------

TEST(PackedFlexPathTest, OpenIsLazyAndDocSizeNeedsNoDecode) {
  FlexPath mem;
  Rng rng(808);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        mem.AddDocument(testing_util::RandomDocument(&rng, mem.tags(), 80))
            .ok());
  }
  const std::string path = TempPath("storage_lazy.fxp");
  ASSERT_TRUE(mem.SavePacked(path).ok());
  ASSERT_TRUE(mem.Build().ok());

  Counter* decodes = MetricsRegistry::Global().counter("storage.doc_decodes");
  const uint64_t before_open = decodes->Value();
  FlexPath packed;
  ASSERT_TRUE(packed.OpenPacked(path).ok());
  const Corpus& corpus = packed.corpus();
  ASSERT_EQ(corpus.size(), mem.corpus().size());
  for (DocId d = 0; d < corpus.size(); ++d) {
    EXPECT_EQ(corpus.DocSize(d), mem.corpus().doc(d).size());
  }
  // Opening + DocSize must not have decoded a single node stream.
  EXPECT_EQ(decodes->Value(), before_open);

  // First touch decodes exactly one document; a second touch is served
  // from the materialized slot.
  (void)corpus.doc(1);
  EXPECT_EQ(decodes->Value(), before_open + 1);
  (void)corpus.doc(1);
  EXPECT_EQ(decodes->Value(), before_open + 1);

  EXPECT_NE(packed.packed_reader(), nullptr);
  std::remove(path.c_str());
}

// Content is decoded only for the documents whose text or attributes a
// query reads: none for a structure-only query, the candidates' documents
// for an attribute predicate, the answers' documents for snippets. Every
// answer and snippet equals the in-memory build's.
TEST(PackedFlexPathTest, ContentDecodesOnlyWhereQueriesReadIt) {
  // Items and names live only in documents 0 and 1, persons only in 2
  // and 3, so each query below touches a known pair of documents.
  const std::vector<std::string> docs = {
      "<site><item id=\"a\"><name>gold ring</name></item></site>",
      "<site><item id=\"b\"><name>silver</name><name>x</name></item>"
      "</site>",
      "<site><person id=\"p\"><age>33</age></person></site>",
      "<site><person id=\"q\"><age>4</age><age>5</age></person></site>",
  };
  FlexPath mem;
  for (const std::string& xml : docs) {
    ASSERT_TRUE(mem.AddDocumentXml(xml).ok());
  }
  const std::string path = TempPath("storage_content_lazy.fxp");
  ASSERT_TRUE(mem.SavePacked(path).ok());
  ASSERT_TRUE(mem.Build().ok());
  const std::string file = ReadFileBytes(path);
  auto sum = [&](std::vector<DocId> ids, bool content) {
    uint64_t bytes = 0;
    for (DocId d : ids) {
      const storage::DocDirRecord rec = DocDirOf(file, d);
      bytes += content ? rec.content_length : rec.length;
    }
    return bytes;
  };

  MetricsRegistry& m = MetricsRegistry::Global();
  Counter* doc_bytes = m.counter("storage.doc_decode_bytes");
  Counter* content_decodes = m.counter("storage.content_decodes");
  Counter* content_bytes = m.counter("storage.content_decode_bytes");
  FlexPath packed;
  ASSERT_TRUE(packed.OpenPacked(path).ok());
  TopKOptions opts;
  opts.k = 10;
  opts.num_threads = 1;
  auto run = [&](FlexPath& fp, const char* xpath) {
    Result<Tpq> q = fp.Parse(xpath);
    EXPECT_TRUE(q.ok());
    Result<TopKResult> r = fp.QueryTpq(*q, opts, Algorithm::kHybrid);
    EXPECT_TRUE(r.ok());
    std::vector<std::pair<NodeRef, double>> out;
    for (const RankedAnswer& a : r->answers) {
      out.emplace_back(a.node, a.score.Combined());
    }
    return out;
  };

  // Structure only: both item documents' structure, no content at all.
  uint64_t b0 = doc_bytes->Value();
  uint64_t c0 = content_decodes->Value();
  EXPECT_EQ(run(packed, "//item[./name]"), run(mem, "//item[./name]"));
  EXPECT_EQ(doc_bytes->Value() - b0, sum({0, 1}, false));
  EXPECT_EQ(content_decodes->Value(), c0);

  // An attribute predicate decodes the content of the candidates'
  // documents (2 and 3), and no other.
  b0 = doc_bytes->Value();
  uint64_t cb0 = content_bytes->Value();
  EXPECT_EQ(run(packed, "//person[@id='p' and ./age]"),
            run(mem, "//person[@id='p' and ./age]"));
  EXPECT_EQ(doc_bytes->Value() - b0, sum({2, 3}, false));
  EXPECT_EQ(content_decodes->Value() - c0, 2u);
  EXPECT_EQ(content_bytes->Value() - cb0, sum({2, 3}, true));

  // Snippets decode the answers' documents (0 and 1) once each; the
  // person documents are already decoded and are not decoded again.
  cb0 = content_bytes->Value();
  for (const char* xpath : {"//item[./name]", "//person[./age]"}) {
    Result<std::vector<QueryAnswer>> got = packed.Query(xpath, opts);
    Result<std::vector<QueryAnswer>> want = mem.Query(xpath, opts);
    ASSERT_TRUE(got.ok() && want.ok());
    ASSERT_EQ(got->size(), want->size()) << xpath;
    for (size_t i = 0; i < got->size(); ++i) {
      EXPECT_EQ((*got)[i].node, (*want)[i].node) << xpath;
      EXPECT_EQ((*got)[i].score, (*want)[i].score) << xpath;
      EXPECT_EQ((*got)[i].tag, (*want)[i].tag) << xpath;
      EXPECT_EQ((*got)[i].snippet, (*want)[i].snippet) << xpath;
    }
  }
  EXPECT_EQ(content_decodes->Value() - c0, 4u);
  EXPECT_EQ(content_bytes->Value() - cb0, sum({0, 1}, true));
  std::remove(path.c_str());
}

// With a packed subtype hierarchy, a merged supertype scan decodes each
// member's own list once, also where a member is itself a supertype, and
// serves exactly the in-memory merged scan.
TEST(PackedElementIndexTest, MergedSupertypeScanDecodesEachListOnce) {
  auto corpus = testing_util::CorpusFromXml(
      {"<lib><pub/><article/><book><novel/></book><article/></lib>",
       "<lib><novel/><book/><pub><article/></pub></lib>"});
  const std::string path = TempPath("storage_hierarchy.fxp");
  ASSERT_TRUE(WritePackedCorpus(*corpus, TokenizerOptions{}, path).ok());
  Result<std::shared_ptr<StorageReader>> reader = StorageReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Corpus backed;
  ASSERT_TRUE((*reader)->LoadTags(backed.tags()).ok());
  backed.AttachBacking(*reader);

  const TagDict& dict = std::as_const(*corpus).tags();
  const TagId pub = dict.Lookup("pub");
  const TagId article = dict.Lookup("article");
  const TagId book = dict.Lookup("book");
  const TagId novel = dict.Lookup("novel");
  TypeHierarchy h;
  ASSERT_TRUE(h.AddSubtype(pub, article).ok());
  ASSERT_TRUE(h.AddSubtype(pub, book).ok());
  ASSERT_TRUE(h.AddSubtype(book, novel).ok());
  ElementIndex mem(corpus.get(), &h);
  ElementIndex packed(&backed, &h, *reader);

  // One decode per member list: four.
  const uint64_t before = ColdBlockDecodes()->Value();
  const std::vector<NodeRef>& all = packed.Scan(pub);
  EXPECT_EQ(all.size(), 9u);
  EXPECT_EQ(all, mem.Scan(pub));
  EXPECT_EQ(ColdBlockDecodes()->Value() - before, 4u);
  for (TagId t : {pub, article, book, novel}) {
    EXPECT_EQ(packed.Scan(t), mem.Scan(t)) << dict.Name(t);
    EXPECT_EQ(&packed.Scan(t), &packed.Scan(t)) << dict.Name(t);
  }
  EXPECT_EQ(packed.Scan(book).size(), 4u);
  EXPECT_EQ(ColdBlockDecodes()->Value() - before, 4u);
  std::remove(path.c_str());
}

TEST(PackedFlexPathTest, OpenPackedRequiresFreshInstance) {
  FlexPath mem;
  Rng rng(809);
  ASSERT_TRUE(
      mem.AddDocument(testing_util::RandomDocument(&rng, mem.tags(), 40))
          .ok());
  const std::string path = TempPath("storage_fresh.fxp");
  ASSERT_TRUE(mem.SavePacked(path).ok());
  ASSERT_TRUE(mem.Build().ok());
  // Already built: refuse.
  EXPECT_FALSE(mem.OpenPacked(path).ok());
  // Documents added but not built: refuse too (the packed file is the
  // corpus; mixing is undefined).
  FlexPath half;
  ASSERT_TRUE(
      half.AddDocument(testing_util::RandomDocument(&rng, half.tags(), 20))
          .ok());
  EXPECT_FALSE(half.OpenPacked(path).ok());
  std::remove(path.c_str());
}

// AddDocument keeps AddDocumentXml's contract: after Build() the index,
// statistics and IR engine are frozen, and after OpenPacked() the corpus
// is served from the file, so a late document is refused and the corpus
// is left exactly as it was.
TEST(PackedFlexPathTest, AddDocumentRefusedAfterBuildOrOpen) {
  Rng rng(810);
  FlexPath mem;
  ASSERT_TRUE(
      mem.AddDocument(testing_util::RandomDocument(&rng, mem.tags(), 20))
          .ok());
  const std::string path = TempPath("storage_add_after.fxp");
  ASSERT_TRUE(mem.SavePacked(path).ok());
  ASSERT_TRUE(mem.Build().ok());
  Result<DocId> after_build =
      mem.AddDocument(testing_util::RandomDocument(&rng, mem.tags(), 20));
  EXPECT_EQ(after_build.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(mem.corpus().size(), 1u);

  FlexPath packed;
  ASSERT_TRUE(packed.OpenPacked(path).ok());
  const size_t nodes = packed.corpus().TotalNodes();
  Result<DocId> after_open = packed.AddDocument(
      testing_util::RandomDocument(&rng, packed.tags(), 20));
  EXPECT_EQ(after_open.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(packed.corpus().size(), 1u);
  EXPECT_EQ(packed.corpus().TotalNodes(), nodes);
  std::remove(path.c_str());
}

TEST(PackedFlexPathTest, SavePackedRefusesEmptyCorpus) {
  FlexPath empty;
  EXPECT_FALSE(empty.SavePacked(TempPath("storage_empty.fxp")).ok());
}

}  // namespace
}  // namespace flexpath
