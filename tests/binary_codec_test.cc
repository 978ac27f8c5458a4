#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xml/binary_codec.h"
#include "xml/serializer.h"

namespace flexpath {
namespace {

void ExpectCorporaEqual(const Corpus& a, const Corpus& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(std::as_const(a).tags().size(), std::as_const(b).tags().size());
  for (TagId t = 0; t < std::as_const(a).tags().size(); ++t) {
    EXPECT_EQ(std::as_const(a).tags().Name(t),
              std::as_const(b).tags().Name(t));
  }
  for (DocId d = 0; d < a.size(); ++d) {
    const Document& da = a.doc(d);
    const Document& db = b.doc(d);
    ASSERT_EQ(da.size(), db.size()) << "doc " << d;
    for (NodeId n = 0; n < da.size(); ++n) {
      EXPECT_EQ(da.node(n).tag, db.node(n).tag);
      EXPECT_EQ(da.span(n).parent, db.span(n).parent);
      EXPECT_EQ(da.span(n).start, db.span(n).start);
      EXPECT_EQ(da.span(n).end, db.span(n).end);
      EXPECT_EQ(da.span(n).level, db.span(n).level);
      EXPECT_EQ(da.node(n).text, db.node(n).text);
      ASSERT_EQ(da.node(n).attrs.size(), db.node(n).attrs.size());
      for (size_t i = 0; i < da.node(n).attrs.size(); ++i) {
        EXPECT_EQ(da.node(n).attrs[i].name, db.node(n).attrs[i].name);
        EXPECT_EQ(da.node(n).attrs[i].value, db.node(n).attrs[i].value);
      }
    }
  }
}

TEST(BinaryCodecTest, RoundTripSmallCorpus) {
  auto corpus = testing_util::CorpusFromXml({
      "<a x=\"1\"><b>text</b><c/></a>",
      "<a><b y=\"2\" z=\"3\">more words</b></a>",
  });
  std::string data = EncodeCorpus(*corpus);
  Result<Corpus> back = DecodeCorpus(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorporaEqual(*corpus, *back);
}

TEST(BinaryCodecTest, RoundTripRandomDocuments) {
  Rng rng(99);
  Corpus corpus;
  for (int i = 0; i < 8; ++i) {
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 80));
  }
  Result<Corpus> back = DecodeCorpus(EncodeCorpus(corpus));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorporaEqual(corpus, *back);
}

TEST(BinaryCodecTest, RoundTripXMark) {
  Corpus corpus;
  XMarkOptions opts;
  opts.target_bytes = 100000;
  opts.seed = 4;
  Result<Document> doc = GenerateXMark(opts, corpus.tags());
  ASSERT_TRUE(doc.ok());
  corpus.Add(std::move(doc).value());
  std::string data = EncodeCorpus(corpus);
  // The snapshot should be smaller than the serialized XML.
  const std::string xml =
      SerializeXml(corpus.doc(0), std::as_const(corpus).tags());
  EXPECT_LT(data.size(), xml.size());
  Result<Corpus> back = DecodeCorpus(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorporaEqual(corpus, *back);
}

TEST(BinaryCodecTest, RejectsBadMagic) {
  EXPECT_FALSE(DecodeCorpus("").ok());
  EXPECT_FALSE(DecodeCorpus("nope").ok());
  EXPECT_FALSE(DecodeCorpus("FXP2xxxxxx").ok());
}

TEST(BinaryCodecTest, RejectsOldFormatVersionWithClearMessage) {
  // A v1 snapshot ("FXP1" magic, no version byte, no byte-order guard)
  // must be called out as an *old version*, not generic corruption —
  // the message tells the user to re-save rather than suspect their
  // file.
  const std::string old_snapshot = "FXP1junk-payload";
  Result<Corpus> r = DecodeCorpus(old_snapshot);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("unsupported snapshot version"),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().ToString().find("re-save"), std::string::npos)
      << r.status().ToString();
}

TEST(BinaryCodecTest, RejectsFutureFormatVersion) {
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  std::string data = EncodeCorpus(*corpus);
  // The version varint sits right after the 4-byte magic; current
  // version (2) is a single byte. Patch it to 77.
  ASSERT_EQ(data[4], 2);
  data[4] = 77;
  Result<Corpus> r = DecodeCorpus(data);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("unsupported snapshot version 77"),
            std::string::npos)
      << r.status().ToString();
}

TEST(BinaryCodecTest, RejectsByteOrderGuardMismatch) {
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  std::string data = EncodeCorpus(*corpus);
  // Reverse the 4-byte guard (bytes 5..8: after magic + version) as a
  // byte-swapped writer would have produced it.
  std::swap(data[5], data[8]);
  std::swap(data[6], data[7]);
  Result<Corpus> r = DecodeCorpus(data);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("byte order"), std::string::npos)
      << r.status().ToString();
}

TEST(BinaryCodecTest, RejectsHeaderOnlyTruncation) {
  // Cuts inside the version varint and the byte-order guard — shorter
  // than any payload — must fail cleanly, not index out of bounds.
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  const std::string data = EncodeCorpus(*corpus);
  for (size_t cut = 0; cut < 9; ++cut) {
    EXPECT_FALSE(
        DecodeCorpus(std::string_view(data).substr(0, cut)).ok())
        << "cut at " << cut;
  }
}

TEST(BinaryCodecTest, RejectsTruncation) {
  auto corpus = testing_util::CorpusFromXml({"<a><b>hello</b></a>"});
  std::string data = EncodeCorpus(*corpus);
  for (size_t cut : {data.size() - 1, data.size() / 2, size_t{5}}) {
    Result<Corpus> r = DecodeCorpus(std::string_view(data).substr(0, cut));
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

TEST(BinaryCodecTest, RejectsTrailingGarbage) {
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  std::string data = EncodeCorpus(*corpus) + "junk";
  EXPECT_FALSE(DecodeCorpus(data).ok());
}

TEST(BinaryCodecTest, SurvivesRandomCorruption) {
  // Flipping bytes must never crash; it may still decode (text bytes),
  // but structural damage must be reported as an error.
  auto corpus = testing_util::CorpusFromXml({
      "<site><item id=\"i1\"><name>gold ring</name></item></site>",
  });
  std::string data = EncodeCorpus(*corpus);
  Rng rng(7);
  for (int iter = 0; iter < 200; ++iter) {
    std::string mutated = data;
    const size_t pos = rng.Uniform(mutated.size());
    mutated[pos] = static_cast<char>(rng.Uniform(256));
    Result<Corpus> r = DecodeCorpus(mutated);  // must not crash
    if (r.ok()) {
      EXPECT_GT(r->TotalNodes(), 0u);
    }
  }
}

TEST(BinaryCodecTest, SaveAndLoadFile) {
  auto corpus = testing_util::CorpusFromXml({"<a><b>x</b></a>"});
  const std::string path = ::testing::TempDir() + "/flexpath_codec_test.bin";
  ASSERT_TRUE(SaveCorpus(*corpus, path).ok());
  Result<Corpus> back = LoadCorpus(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectCorporaEqual(*corpus, *back);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadCorpus(path + ".missing").ok());
}

}  // namespace
}  // namespace flexpath
