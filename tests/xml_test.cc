#include <algorithm>
#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "tests/test_util.h"
#include "xmark/generator.h"
#include "xml/corpus.h"
#include "xml/document.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tag_dict.h"

namespace flexpath {
namespace {

TEST(TagDictTest, InternIsIdempotent) {
  TagDict dict;
  TagId a = dict.Intern("article");
  TagId b = dict.Intern("section");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("article"), a);
  EXPECT_EQ(dict.Name(a), "article");
  EXPECT_EQ(dict.size(), 2u);
}

TEST(TagDictTest, LookupMissingReturnsInvalid) {
  TagDict dict;
  EXPECT_EQ(dict.Lookup("nope"), kInvalidTag);
  dict.Intern("yes");
  EXPECT_NE(dict.Lookup("yes"), kInvalidTag);
}

TEST(DocumentBuilderTest, BuildsIntervalEncoding) {
  TagDict dict;
  DocumentBuilder b(&dict);
  b.Open("root");        // 0
  b.Open("child");       // 1
  b.Open("grandchild");  // 2
  ASSERT_TRUE(b.Close().ok());
  ASSERT_TRUE(b.Close().ok());
  b.Open("child2");  // 3
  ASSERT_TRUE(b.Close().ok());
  ASSERT_TRUE(b.Close().ok());
  Result<Document> doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->size(), 4u);

  EXPECT_TRUE(doc->IsAncestor(0, 1));
  EXPECT_TRUE(doc->IsAncestor(0, 2));
  EXPECT_TRUE(doc->IsAncestor(1, 2));
  EXPECT_TRUE(doc->IsAncestor(0, 3));
  EXPECT_FALSE(doc->IsAncestor(1, 3));
  EXPECT_FALSE(doc->IsAncestor(2, 1));
  EXPECT_FALSE(doc->IsAncestor(1, 1));

  EXPECT_TRUE(doc->IsParent(0, 1));
  EXPECT_FALSE(doc->IsParent(0, 2));
  EXPECT_EQ(doc->span(2).level, 2u);
  EXPECT_EQ(doc->span(0).level, 0u);
}

TEST(DocumentBuilderTest, ChildrenInDocumentOrder) {
  TagDict dict;
  DocumentBuilder b(&dict);
  b.Open("r");
  b.Open("a");
  (void)b.Close();
  b.Open("b");
  (void)b.Close();
  b.Open("c");
  (void)b.Close();
  (void)b.Close();
  Result<Document> doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  std::vector<NodeId> kids = doc->Children(0);
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(doc->tag(kids[0]), dict.Lookup("a"));
  EXPECT_EQ(doc->tag(kids[2]), dict.Lookup("c"));
}

TEST(DocumentBuilderTest, RejectsTwoRoots) {
  TagDict dict;
  DocumentBuilder b(&dict);
  b.Open("r");
  (void)b.Close();
  b.Open("r2");
  (void)b.Close();
  EXPECT_FALSE(std::move(b).Finish().ok());
}

TEST(DocumentBuilderTest, RejectsUnclosed) {
  TagDict dict;
  DocumentBuilder b(&dict);
  b.Open("r");
  EXPECT_FALSE(std::move(b).Finish().ok());
}

TEST(DocumentBuilderTest, RejectsEmpty) {
  TagDict dict;
  DocumentBuilder b(&dict);
  EXPECT_FALSE(std::move(b).Finish().ok());
}

TEST(DocumentTest, SubtreeText) {
  TagDict dict;
  DocumentBuilder b(&dict);
  b.Open("r");
  (void)b.Text("alpha");
  b.Open("c");
  (void)b.Text("beta");
  (void)b.Close();
  (void)b.Text("gamma");
  (void)b.Close();
  Result<Document> doc = std::move(b).Finish();
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->SubtreeText(0), "alpha gamma beta");
  EXPECT_EQ(doc->SubtreeText(1), "beta");
}

TEST(ParserTest, ParsesBasicDocument) {
  TagDict dict;
  Result<Document> doc =
      ParseXml("<a><b x=\"1\">hi</b><c/></a>", &dict);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_EQ(doc->size(), 3u);
  EXPECT_EQ(doc->tag(0), dict.Lookup("a"));
  EXPECT_EQ(doc->content(1).text, "hi");
  const std::string* attr = doc->FindAttribute(1, dict.Lookup("x"));
  ASSERT_NE(attr, nullptr);
  EXPECT_EQ(*attr, "1");
}

TEST(ParserTest, HandlesPrologCommentsCdata) {
  TagDict dict;
  const char* xml = R"(<?xml version="1.0"?>
    <!DOCTYPE site [<!ELEMENT site ANY>]>
    <!-- header comment -->
    <site><!-- inner --><item><![CDATA[5 < 6 & 7 > 2]]></item></site>)";
  Result<Document> doc = ParseXml(xml, &dict);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->content(1).text, "5 < 6 & 7 > 2");
}

// The parser must never read past the view it was given: the input here
// sits in an exact-size heap buffer with no terminator behind it, so an
// index at end of input (after the root element, while looking for a
// trailing comment) lands outside the allocation, where AddressSanitizer
// and -D_GLIBCXX_ASSERTIONS builds catch it.
TEST(ParserTest, StopsAtEndOfUnterminatedBuffer) {
  for (std::string_view xml : {"<a><b>x</b></a>", "<a/> <!-- c -->",
                               "<a/><?pi?>", "<a/>\n"}) {
    const auto buf = std::make_unique<char[]>(xml.size());
    std::copy(xml.begin(), xml.end(), buf.get());
    TagDict dict;
    Result<Document> doc =
        ParseXml(std::string_view(buf.get(), xml.size()), &dict);
    ASSERT_TRUE(doc.ok()) << xml << ": " << doc.status().ToString();
    EXPECT_EQ(doc->tag(0), dict.Lookup("a"));
  }
}

TEST(ParserTest, DecodesEntities) {
  TagDict dict;
  Result<Document> doc =
      ParseXml("<a>&lt;tag&gt; &amp; &quot;x&quot; &#65;&#x42;</a>", &dict);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->content(0).text, "<tag> & \"x\" AB");
}

TEST(ParserTest, EntityInAttribute) {
  TagDict dict;
  Result<Document> doc = ParseXml("<a t=\"x&amp;y\"/>", &dict);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->FindAttribute(0, dict.Lookup("t")), "x&y");
}

TEST(ParserTest, SingleQuotedAttributes) {
  TagDict dict;
  Result<Document> doc = ParseXml("<a t='v'/>", &dict);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(*doc->FindAttribute(0, dict.Lookup("t")), "v");
}

TEST(ParserTest, RejectsMismatchedTags) {
  TagDict dict;
  Result<Document> doc = ParseXml("<a><b></a></b>", &dict);
  EXPECT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

TEST(ParserTest, RejectsUnterminated) {
  TagDict dict;
  EXPECT_FALSE(ParseXml("<a><b>", &dict).ok());
}

TEST(ParserTest, RejectsTrailingContent) {
  TagDict dict;
  EXPECT_FALSE(ParseXml("<a/><b/>", &dict).ok());
}

TEST(ParserTest, RejectsUnknownEntity) {
  TagDict dict;
  EXPECT_FALSE(ParseXml("<a>&bogus;</a>", &dict).ok());
}

TEST(ParserTest, ErrorsIncludePosition) {
  TagDict dict;
  Result<Document> doc = ParseXml("<a>\n<b></c>\n</a>", &dict);
  ASSERT_FALSE(doc.ok());
  EXPECT_NE(doc.status().message().find("line 2"), std::string::npos)
      << doc.status().ToString();
}

TEST(SerializerTest, RoundTripPreservesStructure) {
  TagDict dict;
  const char* xml =
      "<site><item id=\"i1\"><name>gold ring</name>"
      "<desc>rare &amp; fine</desc></item><item id=\"i2\"/></site>";
  Result<Document> doc = ParseXml(xml, &dict);
  ASSERT_TRUE(doc.ok());
  std::string serialized = SerializeXml(*doc, dict);
  Result<Document> again = ParseXml(serialized, &dict);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again->size(), doc->size());
  for (NodeId i = 0; i < doc->size(); ++i) {
    EXPECT_EQ(again->tag(i), doc->tag(i));
    EXPECT_EQ(again->content(i).text, doc->content(i).text);
    EXPECT_EQ(again->span(i).parent, doc->span(i).parent);
    EXPECT_EQ(again->span(i).level, doc->span(i).level);
  }
}

TEST(SerializerTest, PrettyPrintStillParses) {
  TagDict dict;
  Result<Document> doc =
      ParseXml("<a><b>x</b><c><d/></c></a>", &dict);
  ASSERT_TRUE(doc.ok());
  SerializeOptions opts;
  opts.pretty = true;
  std::string pretty = SerializeXml(*doc, dict, opts);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  Result<Document> again = ParseXml(pretty, &dict);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->size(), doc->size());
}

Document XMarkDocument(uint64_t bytes, uint64_t seed, TagDict* dict) {
  XMarkOptions opts;
  opts.target_bytes = bytes;
  opts.seed = seed;
  Result<Document> doc = GenerateXMark(opts, dict);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

/// Children(id), derived from subtree sizes, against the nodes whose
/// parent link names `id`, in document order, for every node.
void ExpectChildrenMatchParentLinks(const Document& doc) {
  std::vector<std::vector<NodeId>> want(doc.size());
  for (NodeId n = 0; n < doc.size(); ++n) {
    if (doc.span(n).parent != kInvalidNode) {
      want[doc.span(n).parent].push_back(n);
    }
  }
  for (NodeId n = 0; n < doc.size(); ++n) {
    ASSERT_EQ(doc.Children(n), want[n]) << "node " << n;
  }
}

TEST(DocumentTest, ChildrenMatchParentLinksOnXMark) {
  TagDict dict;
  for (const uint64_t seed : {uint64_t{42}, uint64_t{7}}) {
    ExpectChildrenMatchParentLinks(XMarkDocument(256 << 10, seed, &dict));
  }
}

TEST(DocumentTest, ChildrenMatchParentLinksOnRandomDocuments) {
  Rng rng(4242);
  TagDict dict;
  for (int iter = 0; iter < 100; ++iter) {
    ExpectChildrenMatchParentLinks(
        testing_util::RandomDocument(&rng, &dict, 1 + rng.Uniform(80)));
  }
}

// flexbench writes its generated XMark inputs through the serializer, so
// its output is pinned byte for byte: the size and FNV-1a digest of the
// 1 MB seed-42 document, compact and pretty.
TEST(SerializerTest, XMarkOutputIsPinned) {
  TagDict dict;
  const Document doc = XMarkDocument(1 << 20, 42, &dict);
  ASSERT_EQ(doc.size(), 32457u);
  const std::string compact = SerializeXml(doc, dict);
  EXPECT_EQ(compact.size(), 1023847u);
  EXPECT_EQ(Fnv1a64(compact), 0x5b9e3298f9271070ULL);
  SerializeOptions opts;
  opts.pretty = true;
  const std::string pretty = SerializeXml(doc, dict, opts);
  EXPECT_EQ(pretty.size(), 1615758u);
  EXPECT_EQ(Fnv1a64(pretty), 0xa8486d88c24c77ccULL);
}

TEST(RoundTripPropertyTest, RandomDocumentsSurviveRoundTrip) {
  Rng rng(2024);
  TagDict dict;
  for (int iter = 0; iter < 50; ++iter) {
    Document doc = testing_util::RandomDocument(&rng, &dict, 60);
    std::string xml = SerializeXml(doc, dict);
    Result<Document> again = ParseXml(xml, &dict);
    ASSERT_TRUE(again.ok()) << xml;
    ASSERT_EQ(again->size(), doc.size());
    for (NodeId i = 0; i < doc.size(); ++i) {
      EXPECT_EQ(again->tag(i), doc.tag(i));
      EXPECT_EQ(again->span(i).parent, doc.span(i).parent);
      EXPECT_EQ(again->span(i).start, doc.span(i).start);
      EXPECT_EQ(again->span(i).end, doc.span(i).end);
    }
  }
}

TEST(CorpusTest, SharedDictionaryAcrossDocuments) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml("<a><b/></a>").ok());
  ASSERT_TRUE(corpus.AddXml("<a><c/></a>").ok());
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.TotalNodes(), 4u);
  const TagId a = std::as_const(corpus).tags().Lookup("a");
  EXPECT_EQ(corpus.doc(0).tag(0), a);
  EXPECT_EQ(corpus.doc(1).tag(0), a);
}

// NodeRef compares its packed (doc << 32) | node words; that must be
// exactly lexicographic (doc, node) order, at the extreme field values
// too. (UINT32_MAX, UINT32_MAX) — the join's null binding — is the
// largest ref of all.
TEST(CorpusTest, NodeRefOrdering) {
  NodeRef a{0, 5};
  NodeRef b{0, 6};
  NodeRef c{1, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(a, (NodeRef{0, 5}));

  std::vector<uint32_t> fields = {0,          1,          2,
                                  0x7fffffff, 0x80000000, UINT32_MAX - 1,
                                  UINT32_MAX};
  Rng rng(20261018);
  for (int i = 0; i < 6; ++i) {
    fields.push_back(static_cast<uint32_t>(rng.Next()));
  }
  std::vector<NodeRef> refs;
  for (uint32_t doc : fields) {
    for (uint32_t node : fields) refs.push_back(NodeRef{doc, node});
  }
  const NodeRef max{UINT32_MAX, UINT32_MAX};
  for (const NodeRef& x : refs) {
    for (const NodeRef& y : refs) {
      const auto lex = std::tie(x.doc, x.node) <=> std::tie(y.doc, y.node);
      EXPECT_EQ(x <=> y, lex) << x.doc << ":" << x.node << " vs " << y.doc
                              << ":" << y.node;
      EXPECT_EQ(x < y, lex < 0);
      EXPECT_EQ(x == y, lex == 0);
    }
    EXPECT_LE(x, max);
  }
}

TEST(CorpusTest, CrossDocumentRelationsAreFalse) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddXml("<a><b/></a>").ok());
  ASSERT_TRUE(corpus.AddXml("<a><b/></a>").ok());
  EXPECT_TRUE(corpus.IsAncestor(NodeRef{0, 0}, NodeRef{0, 1}));
  EXPECT_FALSE(corpus.IsAncestor(NodeRef{0, 0}, NodeRef{1, 1}));
  EXPECT_FALSE(corpus.IsParent(NodeRef{1, 0}, NodeRef{0, 1}));
}

}  // namespace
}  // namespace flexpath
