#include <map>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace flexpath {
namespace {

// --- ElementIndex ----------------------------------------------------------

TEST(ElementIndexTest, ScansAreInDocumentOrder) {
  auto corpus = testing_util::CorpusFromXml(
      {"<a><b/><a><b/></a></a>", "<a><b/></a>"});
  ElementIndex index(corpus.get());
  const TagDict& dict = std::as_const(*corpus).tags();
  const auto& as = index.Scan(dict.Lookup("a"));
  ASSERT_EQ(as.size(), 3u);
  for (size_t i = 1; i < as.size(); ++i) {
    EXPECT_LT(as[i - 1], as[i]);
  }
  EXPECT_EQ(index.Scan(dict.Lookup("b")).size(), 3u);
}

TEST(ElementIndexTest, UnknownTagEmpty) {
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  ElementIndex index(corpus.get());
  EXPECT_TRUE(index.Scan(kInvalidTag).empty());
  EXPECT_TRUE(index.Scan(12345).empty());
}

TEST(ElementIndexTest, TagsInternedAfterBuildAreEmpty) {
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  ElementIndex index(corpus.get());
  const TagId later = corpus->tags()->Intern("later");
  EXPECT_TRUE(index.Scan(later).empty());
}

// --- DocumentStats vs brute force -------------------------------------------

/// Brute-force pair counts for verification.
struct BruteCounts {
  std::map<TagId, uint64_t> tags;
  std::map<std::pair<TagId, TagId>, uint64_t> pc, ad;
  std::map<std::pair<TagId, TagId>, uint64_t> pc_exists, ad_exists;
};

BruteCounts Brute(const Corpus& corpus) {
  BruteCounts out;
  for (DocId d = 0; d < corpus.size(); ++d) {
    const Document& doc = corpus.doc(d);
    for (NodeId n = 0; n < doc.size(); ++n) {
      ++out.tags[doc.tag(n)];
      std::map<TagId, bool> child_tags, desc_tags;
      for (NodeId m = 0; m < doc.size(); ++m) {
        if (m == n) continue;
        if (doc.IsParent(n, m)) {
          ++out.pc[{doc.tag(n), doc.tag(m)}];
          child_tags[doc.tag(m)] = true;
        }
        if (doc.IsAncestor(n, m)) {
          ++out.ad[{doc.tag(n), doc.tag(m)}];
          desc_tags[doc.tag(m)] = true;
        }
      }
      for (const auto& [t, _] : child_tags) {
        ++out.pc_exists[{doc.tag(n), t}];
      }
      for (const auto& [t, _] : desc_tags) {
        ++out.ad_exists[{doc.tag(n), t}];
      }
    }
  }
  return out;
}

TEST(DocumentStatsTest, MatchesBruteForceOnRandomDocs) {
  Rng rng(808);
  for (int iter = 0; iter < 20; ++iter) {
    Corpus corpus;
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 70));
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 70));
    DocumentStats stats(&corpus);
    BruteCounts brute = Brute(corpus);

    const size_t num_tags = std::as_const(corpus).tags().size();
    for (TagId t = 0; t < num_tags; ++t) {
      EXPECT_EQ(stats.TagCount(t), brute.tags[t]) << "tag " << t;
      for (TagId u = 0; u < num_tags; ++u) {
        EXPECT_EQ(stats.PcCount(t, u), (brute.pc[{t, u}]))
            << t << "/" << u << " iter " << iter;
        EXPECT_EQ(stats.AdCount(t, u), (brute.ad[{t, u}]))
            << t << "//" << u << " iter " << iter;
        if (brute.tags[t] > 0) {
          EXPECT_DOUBLE_EQ(stats.PcFraction(t, u),
                           static_cast<double>(brute.pc_exists[{t, u}]) /
                               static_cast<double>(brute.tags[t]))
              << t << "/" << u;
          EXPECT_DOUBLE_EQ(stats.AdFraction(t, u),
                           static_cast<double>(brute.ad_exists[{t, u}]) /
                               static_cast<double>(brute.tags[t]))
              << t << "//" << u;
        }
      }
    }
  }
}

TEST(DocumentStatsTest, SimpleHandComputedCase) {
  //   a           a
  //   ├─ b        └─ b
  //   │  └─ c
  //   └─ c
  auto corpus =
      testing_util::CorpusFromXml({"<a><b><c/></b><c/></a>", "<a><b/></a>"});
  DocumentStats stats(corpus.get());
  const TagDict& dict = std::as_const(*corpus).tags();
  const TagId a = dict.Lookup("a");
  const TagId b = dict.Lookup("b");
  const TagId c = dict.Lookup("c");
  EXPECT_EQ(stats.TagCount(a), 2u);
  EXPECT_EQ(stats.TagCount(b), 2u);
  EXPECT_EQ(stats.TagCount(c), 2u);
  EXPECT_EQ(stats.PcCount(a, b), 2u);
  EXPECT_EQ(stats.PcCount(a, c), 1u);
  EXPECT_EQ(stats.PcCount(b, c), 1u);
  EXPECT_EQ(stats.AdCount(a, c), 2u);
  EXPECT_EQ(stats.AdCount(b, c), 1u);
  // Both a's have a b child; only the first a has a c descendant.
  EXPECT_DOUBLE_EQ(stats.PcFraction(a, b), 1.0);
  EXPECT_DOUBLE_EQ(stats.AdFraction(a, c), 0.5);
  EXPECT_DOUBLE_EQ(stats.PcFraction(c, a), 0.0);
}

TEST(DocumentStatsTest, UnknownTagsCountZero) {
  auto corpus = testing_util::CorpusFromXml({"<a/>"});
  DocumentStats stats(corpus.get());
  EXPECT_EQ(stats.TagCount(999), 0u);
  EXPECT_EQ(stats.PcCount(999, 0), 0u);
  EXPECT_DOUBLE_EQ(stats.PcFraction(999, 0), 0.0);
}

TEST(DocumentStatsTest, ScalesToXMark) {
  Corpus corpus;
  XMarkOptions opts;
  opts.target_bytes = 200000;
  opts.seed = 77;
  Result<Document> doc = GenerateXMark(opts, corpus.tags());
  ASSERT_TRUE(doc.ok());
  corpus.Add(std::move(doc).value());
  DocumentStats stats(&corpus);
  const TagDict& dict = std::as_const(corpus).tags();
  const TagId item = dict.Lookup("item");
  const TagId name = dict.Lookup("name");
  // Every item has exactly one name child (and categories/persons also
  // have names, so PcCount(item, name) == #items exactly).
  EXPECT_EQ(stats.PcCount(item, name), stats.TagCount(item));
  EXPECT_DOUBLE_EQ(stats.PcFraction(item, name), 1.0);
  // incategory is optional.
  const TagId incat = dict.Lookup("incategory");
  EXPECT_GT(stats.PcFraction(item, incat), 0.0);
  EXPECT_LT(stats.PcFraction(item, incat), 1.0);
}

}  // namespace
}  // namespace flexpath
