#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "xmark/generator.h"
#include "xmark/wordlist.h"
#include "xml/serializer.h"
#include "xml/tag_dict.h"

namespace flexpath {
namespace {

Document Generate(uint64_t bytes, uint64_t seed, TagDict* dict,
                  XMarkStatsSummary* stats = nullptr) {
  XMarkOptions opts;
  opts.target_bytes = bytes;
  opts.seed = seed;
  Result<Document> doc = GenerateXMark(opts, dict, stats);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return std::move(doc).value();
}

TEST(WordListTest, NonEmptyAndContainsQueryTerms) {
  ASSERT_GT(WordListSize(), 300u);
  bool has_xml = false;
  bool has_streaming = false;
  for (size_t i = 0; i < WordListSize(); ++i) {
    if (WordAt(i) == "xml") has_xml = true;
    if (WordAt(i) == "streaming") has_streaming = true;
  }
  EXPECT_TRUE(has_xml);
  EXPECT_TRUE(has_streaming);
}

TEST(XMarkTest, DeterministicBySeed) {
  TagDict d1;
  TagDict d2;
  Document a = Generate(50000, 7, &d1);
  Document b = Generate(50000, 7, &d2);
  EXPECT_EQ(SerializeXml(a, d1), SerializeXml(b, d2));
}

TEST(XMarkTest, DifferentSeedsDiffer) {
  TagDict d1;
  TagDict d2;
  Document a = Generate(50000, 7, &d1);
  Document b = Generate(50000, 8, &d2);
  EXPECT_NE(SerializeXml(a, d1), SerializeXml(b, d2));
}

TEST(XMarkTest, SizeTracksTarget) {
  TagDict dict;
  Document doc = Generate(200000, 1, &dict);
  const size_t actual = SerializeXml(doc, dict).size();
  // The generator's byte accounting is approximate; stay within 2x.
  EXPECT_GT(actual, 100000u);
  EXPECT_LT(actual, 400000u);
}

TEST(XMarkTest, SizeMonotoneInTarget) {
  TagDict d1;
  TagDict d2;
  Document small = Generate(20000, 3, &d1);
  Document large = Generate(200000, 3, &d2);
  EXPECT_LT(small.size(), large.size());
}

TEST(XMarkTest, RejectsZeroTarget) {
  TagDict dict;
  XMarkOptions opts;
  opts.target_bytes = 0;
  EXPECT_FALSE(GenerateXMark(opts, &dict).ok());
}

class XMarkSchemaTest : public ::testing::Test {
 protected:
  void SetUp() override {
    doc_ = Generate(300000, 42, &dict_, &stats_);
  }

  /// Counts (tag, parent-tag) occurrences.
  size_t CountWithParent(std::string_view tag, std::string_view parent) {
    const TagId t = dict_.Lookup(tag);
    const TagId p = dict_.Lookup(parent);
    size_t n = 0;
    for (NodeId i = 0; i < doc_.size(); ++i) {
      if (doc_.tag(i) != t) continue;
      const NodeId par = doc_.span(i).parent;
      if (par != kInvalidNode && doc_.tag(par) == p) ++n;
    }
    return n;
  }

  size_t Count(std::string_view tag) {
    const TagId t = dict_.Lookup(tag);
    if (t == kInvalidTag) return 0;
    size_t n = 0;
    for (NodeId i = 0; i < doc_.size(); ++i) {
      if (doc_.tag(i) == t) ++n;
    }
    return n;
  }

  TagDict dict_;
  Document doc_;
  XMarkStatsSummary stats_;
};

TEST_F(XMarkSchemaTest, HasCoreStructure) {
  EXPECT_EQ(Count("site"), 1u);
  EXPECT_GT(stats_.items, 10u);
  EXPECT_EQ(Count("item"), stats_.items);
  EXPECT_GT(Count("regions"), 0u);
  EXPECT_GT(Count("category"), 0u);
  EXPECT_GT(Count("person"), 0u);
  EXPECT_GT(Count("open_auction"), 0u);
}

TEST_F(XMarkSchemaTest, ItemsHaveRequiredChildren) {
  EXPECT_EQ(CountWithParent("name", "item"), stats_.items);
  EXPECT_EQ(CountWithParent("description", "item"), stats_.items);
  EXPECT_EQ(CountWithParent("mailbox", "item"), stats_.items);
}

TEST_F(XMarkSchemaTest, RecursiveParlistExists) {
  // Axis-generalization enabler: some parlist nested under listitem.
  EXPECT_GT(CountWithParent("parlist", "listitem"), 0u);
  // And the summary wrapper puts parlists under description//, not
  // description/.
  EXPECT_GT(CountWithParent("parlist", "summary"), 0u);
  EXPECT_GT(CountWithParent("parlist", "description"), 0u);
}

TEST_F(XMarkSchemaTest, OptionalIncategory) {
  // Leaf-deletion enabler: incategory exists but not on all items.
  const size_t with = CountWithParent("incategory", "item");
  EXPECT_GT(with, 0u);
  // Count items having at least one incategory child.
  const TagId item = dict_.Lookup("item");
  const TagId incat = dict_.Lookup("incategory");
  size_t items_with = 0;
  for (NodeId i = 0; i < doc_.size(); ++i) {
    if (doc_.tag(i) != item) continue;
    bool has = false;
    for (NodeId c : doc_.Children(i)) {
      if (doc_.tag(c) == incat) has = true;
    }
    if (has) ++items_with;
  }
  EXPECT_GT(items_with, 0u);
  EXPECT_LT(items_with, stats_.items) << "some items must lack incategory";
}

TEST_F(XMarkSchemaTest, SharedTextElement) {
  // Subtree-promotion enabler: text under mail, under listitem, and under
  // the reply wrapper.
  EXPECT_GT(CountWithParent("text", "mail"), 0u);
  EXPECT_GT(CountWithParent("text", "listitem"), 0u);
  EXPECT_GT(CountWithParent("text", "reply"), 0u);
}

TEST_F(XMarkSchemaTest, TextHasMarkup) {
  EXPECT_GT(CountWithParent("bold", "text"), 0u);
  EXPECT_GT(CountWithParent("keyword", "text"), 0u);
  EXPECT_GT(CountWithParent("emph", "text"), 0u);
}

TEST_F(XMarkSchemaTest, WellFormedIntervals) {
  for (NodeId i = 0; i < doc_.size(); ++i) {
    const NodeSpan& e = doc_.span(i);
    ASSERT_LT(e.start, e.end);
    if (e.parent != kInvalidNode) {
      const NodeSpan& p = doc_.span(e.parent);
      ASSERT_LT(p.start, e.start);
      ASSERT_LT(e.end, p.end);
      ASSERT_EQ(e.level, p.level + 1);
    }
  }
}

}  // namespace
}  // namespace flexpath
