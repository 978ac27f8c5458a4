#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "exec/plan.h"
#include "ir/engine.h"
#include "ir/thesaurus.h"
#include "query/xpath_parser.h"
#include "relax/extensions.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/naive_evaluator.h"
#include "tests/test_util.h"
#include "xml/type_hierarchy.h"

namespace flexpath {
namespace {

// --- TypeHierarchy ----------------------------------------------------------

TEST(TypeHierarchyTest, BasicRelations) {
  TagDict dict;
  const TagId pub = dict.Intern("publication");
  const TagId article = dict.Intern("article");
  const TagId book = dict.Intern("book");
  const TagId novel = dict.Intern("novel");
  TypeHierarchy h;
  ASSERT_TRUE(h.AddSubtype(pub, article).ok());
  ASSERT_TRUE(h.AddSubtype(pub, book).ok());
  ASSERT_TRUE(h.AddSubtype(book, novel).ok());

  EXPECT_EQ(h.SupertypeOf(article), pub);
  EXPECT_EQ(h.SupertypeOf(pub), kInvalidTag);
  EXPECT_TRUE(h.IsSubtypeOf(novel, pub));
  EXPECT_TRUE(h.IsSubtypeOf(novel, novel));
  EXPECT_FALSE(h.IsSubtypeOf(pub, novel));
  EXPECT_FALSE(h.IsSubtypeOf(article, book));

  std::vector<TagId> closure = h.SubtypeClosure(pub);
  std::sort(closure.begin(), closure.end());
  EXPECT_EQ(closure, (std::vector<TagId>{pub, article, book, novel}));
}

TEST(TypeHierarchyTest, RejectsCyclesAndDoubleParents) {
  TagDict dict;
  const TagId a = dict.Intern("a");
  const TagId b = dict.Intern("b");
  const TagId c = dict.Intern("c");
  TypeHierarchy h;
  ASSERT_TRUE(h.AddSubtype(a, b).ok());
  EXPECT_FALSE(h.AddSubtype(b, a).ok());  // cycle
  EXPECT_FALSE(h.AddSubtype(a, a).ok());  // self
  ASSERT_TRUE(h.AddSubtype(b, c).ok());
  EXPECT_FALSE(h.AddSubtype(a, c).ok());  // second parent
  EXPECT_FALSE(h.AddSubtype(c, a).ok());  // transitive cycle
}

// --- Tag generalization end-to-end ------------------------------------------

class TagGeneralizationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::CorpusFromXml({
        "<library><article><title>joins</title></article>"
        "<book><title>systems</title></book>"
        "<report><title>memo</title></report></library>",
    });
    const TagId pub = corpus_->tags()->Intern("publication");
    ASSERT_TRUE(
        hierarchy_.AddSubtype(pub, corpus_->tags()->Intern("article")).ok());
    ASSERT_TRUE(
        hierarchy_.AddSubtype(pub, corpus_->tags()->Intern("book")).ok());
    index_ = std::make_unique<ElementIndex>(corpus_.get(), &hierarchy_);
    ir_ = std::make_unique<IrEngine>(corpus_.get());
  }

  std::unique_ptr<Corpus> corpus_;
  TypeHierarchy hierarchy_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<IrEngine> ir_;
};

TEST_F(TagGeneralizationTest, ScanIncludesSubtypes) {
  const TagDict& dict = std::as_const(*corpus_).tags();
  EXPECT_EQ(index_->Scan(dict.Lookup("article")).size(), 1u);
  // publication has no concrete elements but two subtype elements.
  EXPECT_EQ(index_->Scan(dict.Lookup("publication")).size(), 2u);
  // report is outside the hierarchy.
  EXPECT_EQ(index_->Scan(dict.Lookup("report")).size(), 1u);
}

TEST_F(TagGeneralizationTest, GeneralizedQueryMatchesMore) {
  Result<Tpq> q = ParseXPath("//article[./title]", corpus_->tags());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(NaiveEvaluate(*index_, *q, ir_.get()).size(), 1u);

  std::vector<VarId> vars = TagGeneralizableVars(*q, hierarchy_);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(vars[0], q->root());

  Result<Tpq> general = ApplyTagGeneralization(*q, q->root(), hierarchy_);
  ASSERT_TRUE(general.ok());
  std::vector<NodeRef> answers = NaiveEvaluate(*index_, *general, ir_.get());
  EXPECT_EQ(answers.size(), 2u) << "article + book, not report";

  // Containment in data: original answers are a subset.
  std::vector<NodeRef> original = NaiveEvaluate(*index_, *q, ir_.get());
  EXPECT_TRUE(std::includes(answers.begin(), answers.end(),
                            original.begin(), original.end()));
}

TEST_F(TagGeneralizationTest, PlanEvaluatorHonorsHierarchy) {
  Result<Tpq> q = ParseXPath("//publication[./title]", corpus_->tags());
  ASSERT_TRUE(q.ok());
  DocumentStats stats(corpus_.get());
  PenaltyModel pm(*q, &stats, ir_.get(), Weights{});
  Result<JoinPlan> plan = JoinPlan::Build(*q, *q, {}, pm, Weights{});
  ASSERT_TRUE(plan.ok());
  PlanEvaluator evaluator(index_.get(), ir_.get());
  std::vector<RankedAnswer> answers = evaluator.Evaluate(
      *plan, EvalMode::kExact, 0, RankScheme::kStructureFirst, 0.0, nullptr);
  EXPECT_EQ(answers.size(), 2u);
}

TEST_F(TagGeneralizationTest, InapplicableCases) {
  Result<Tpq> q = ParseXPath("//report[./title]", corpus_->tags());
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(TagGeneralizableVars(*q, hierarchy_).empty());
  EXPECT_FALSE(ApplyTagGeneralization(*q, q->root(), hierarchy_).ok());
  EXPECT_FALSE(ApplyTagGeneralization(*q, 999, hierarchy_).ok());
}

// --- Attribute predicate relaxation -----------------------------------------

TEST(AttrRelaxTest, WidensBounds) {
  AttrPred le;
  le.op = AttrPred::Op::kLe;
  le.value = "98";
  Result<AttrPred> relaxed = RelaxAttrPred(le, 2.0);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->value, "100");
  EXPECT_TRUE(relaxed->Matches("99"));
  EXPECT_FALSE(le.Matches("99"));

  AttrPred ge;
  ge.op = AttrPred::Op::kGe;
  ge.value = "10";
  relaxed = RelaxAttrPred(ge, 3.0);
  ASSERT_TRUE(relaxed.ok());
  EXPECT_TRUE(relaxed->Matches("7"));
  EXPECT_FALSE(relaxed->Matches("6"));
}

TEST(AttrRelaxTest, RelaxedPredicateIsWeaker) {
  // Everything the original accepts, the relaxed version accepts too.
  AttrPred lt;
  lt.op = AttrPred::Op::kLt;
  lt.value = "50";
  Result<AttrPred> relaxed = RelaxAttrPred(lt, 10.0);
  ASSERT_TRUE(relaxed.ok());
  for (const char* v : {"0", "25", "49.9", "55", "60.1"}) {
    if (lt.Matches(v)) {
      EXPECT_TRUE(relaxed->Matches(v)) << v;
    }
  }
}

TEST(AttrRelaxTest, RejectsBadInput) {
  AttrPred eq;
  eq.op = AttrPred::Op::kEq;
  eq.value = "5";
  EXPECT_FALSE(RelaxAttrPred(eq, 1.0).ok());

  AttrPred le;
  le.op = AttrPred::Op::kLe;
  le.value = "abc";
  EXPECT_FALSE(RelaxAttrPred(le, 1.0).ok());
  le.value = "5";
  EXPECT_FALSE(RelaxAttrPred(le, 0.0).ok());
  EXPECT_FALSE(RelaxAttrPred(le, -1.0).ok());
}

// --- Thesaurus ---------------------------------------------------------------

TEST(ThesaurusTest, ExpandsTermsToDisjunction) {
  Thesaurus th;
  th.AddSynonym("car", "automobile");
  th.AddSynonym("car", "vehicle");
  Result<FtExpr> e = ParseFtExpr("car and fast");
  ASSERT_TRUE(e.ok());
  FtExpr expanded = ExpandWithThesaurus(*e, th);
  // (car or automobile or vehicle) and fast
  EXPECT_EQ(expanded.kind(), FtKind::kAnd);
  EXPECT_EQ(expanded.children()[0].kind(), FtKind::kOr);
  EXPECT_NE(expanded.ToString().find("automobil"), std::string::npos);
}

TEST(ThesaurusTest, EndToEndRecall) {
  auto corpus = testing_util::CorpusFromXml({
      "<ads><ad>fast car for sale</ad><ad>fast automobile bargain</ad>"
      "<ad>slow bicycle</ad></ads>",
  });
  IrEngine engine(corpus.get());
  Result<FtExpr> e = ParseFtExpr("fast and car");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(engine.Evaluate(*e)->most_specific().size(), 1u);

  Thesaurus th;
  th.AddSynonym("car", "automobile");
  FtExpr expanded = ExpandWithThesaurus(*e, th);
  EXPECT_EQ(engine.Evaluate(expanded)->most_specific().size(), 2u);
}

TEST(ThesaurusTest, NegationNotExpanded) {
  Thesaurus th;
  th.AddSynonym("car", "automobile");
  Result<FtExpr> e = ParseFtExpr("fast and not car");
  ASSERT_TRUE(e.ok());
  FtExpr expanded = ExpandWithThesaurus(*e, th);
  // The negated branch must be untouched (expanding it would *narrow*
  // the result set).
  EXPECT_EQ(expanded.children()[1].kind(), FtKind::kNot);
  EXPECT_EQ(expanded.children()[1].children()[0].kind(), FtKind::kTerm);
}

TEST(ThesaurusTest, SynonymsNormalizedAndDeduplicated) {
  Thesaurus th;
  th.AddSynonym("Running", "jogging");
  th.AddSynonym("running", "JOGGING");  // duplicate after normalization
  EXPECT_EQ(th.SynonymsOf("run").size(), 1u);
  th.AddSynonym("run", "run");  // self-synonym ignored
  EXPECT_EQ(th.SynonymsOf("run").size(), 1u);
}

// --- Proximity (near) --------------------------------------------------------

class NearTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::CorpusFromXml({
        // Token positions:   0    1      2   3    4     5       6
        "<d><p>gold antique ring from our private collection</p>"
        "<p>gold is heavy. several words separate it from any ring "
        "here</p></d>",
    });
    engine_ = std::make_unique<IrEngine>(corpus_.get());
  }
  bool Matches(const char* query, NodeRef ref) {
    Result<FtExpr> e = ParseFtExpr(query);
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return engine_->Evaluate(*e)->Satisfies(ref);
  }
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<IrEngine> engine_;
};

TEST_F(NearTest, WindowSemantics) {
  // p1: gold@0 ... ring@2 — within 2 tokens.
  EXPECT_TRUE(Matches("near(\"gold\" \"ring\", 2)", NodeRef{0, 1}));
  EXPECT_FALSE(Matches("near(\"gold\" \"ring\", 1)", NodeRef{0, 1}));
  // p2: gold and ring far apart.
  EXPECT_FALSE(Matches("near(\"gold\" \"ring\", 3)", NodeRef{0, 2}));
  EXPECT_TRUE(Matches("near(\"gold\" \"ring\", 20)", NodeRef{0, 2}));
}

TEST_F(NearTest, OrderInsensitive) {
  EXPECT_TRUE(Matches("near(\"ring\" \"gold\", 2)", NodeRef{0, 1}));
}

TEST_F(NearTest, ThreeWayNear) {
  EXPECT_TRUE(
      Matches("near(\"gold\" \"antique\" \"ring\", 2)", NodeRef{0, 1}));
  EXPECT_FALSE(
      Matches("near(\"gold\" \"antique\" \"ring\", 1)", NodeRef{0, 1}));
}

TEST_F(NearTest, ComposesWithBooleans) {
  EXPECT_TRUE(Matches("near(\"gold\" \"ring\", 2) and \"collection\"",
                      NodeRef{0, 0}));
  EXPECT_FALSE(Matches("near(\"gold\" \"ring\", 2) and \"bicycle\"",
                       NodeRef{0, 0}));
}

TEST_F(NearTest, ParserRejectsMalformedNear) {
  EXPECT_FALSE(ParseFtExpr("near(\"a\", 3)").ok());       // one keyword
  EXPECT_FALSE(ParseFtExpr("near(\"a\" \"b\")").ok());    // no window
  EXPECT_FALSE(ParseFtExpr("near(\"a\" \"b\", x)").ok()); // bad window
  EXPECT_FALSE(ParseFtExpr("near(\"a\" \"b\", 3").ok());  // unterminated
}

TEST_F(NearTest, CanonicalForm) {
  Result<FtExpr> e = ParseFtExpr("near(\"gold\" \"ring\", 4)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->ToString(), "near(\"gold\" \"ring\", 4)");
  Result<FtExpr> f = ParseFtExpr("near(gold ring, 4)");
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(*e == *f);
}

}  // namespace
}  // namespace flexpath
