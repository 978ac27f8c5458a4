#include <algorithm>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "query/logical.h"
#include "query/predicate.h"
#include "query/tpq.h"
#include "query/xpath_parser.h"
#include "tests/containment.h"
#include "tests/logical_reference.h"
#include "xml/tag_dict.h"

namespace flexpath {
namespace {

/// Builds the paper's running example Q1 (Figure 1a):
/// //article[./section[./algorithm and ./paragraph[.contains("XML" and
/// "streaming")]]] with $1=article, $2=section, $3=algorithm,
/// $4=paragraph.
Tpq BuildQ1(TagDict* dict) {
  Tpq q;
  VarId article = q.AddRoot(dict->Intern("article"));
  VarId section = q.AddChild(article, Axis::kChild, dict->Intern("section"));
  q.AddChild(section, Axis::kChild, dict->Intern("algorithm"));
  VarId paragraph =
      q.AddChild(section, Axis::kChild, dict->Intern("paragraph"));
  Result<FtExpr> e = ParseFtExpr("\"XML\" and \"streaming\"");
  EXPECT_TRUE(e.ok());
  q.AddContains(paragraph, *e);
  q.SetDistinguished(article);
  return q;
}

TEST(TpqTest, BuildAndAccessors) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  EXPECT_EQ(q.size(), 4u);
  EXPECT_TRUE(q.Validate().ok());
  const VarId root = q.root();
  EXPECT_EQ(q.distinguished(), root);
  EXPECT_EQ(q.Parent(root), kInvalidVar);
  std::vector<VarId> kids = q.Children(root);
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(q.node(kids[0]).tag, dict.Lookup("section"));
  EXPECT_EQ(q.Children(kids[0]).size(), 2u);
  EXPECT_EQ(q.ContainsCount(), 1u);
}

TEST(TpqTest, DeleteLeaf) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId algorithm = q.Vars()[2];
  ASSERT_TRUE(q.DeleteLeaf(algorithm).ok());
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.HasVar(algorithm));
  EXPECT_TRUE(q.Validate().ok());
}

TEST(TpqTest, DeleteLeafRejectsRootAndInternal) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  EXPECT_FALSE(q.DeleteLeaf(q.root()).ok());
  const VarId section = q.Vars()[1];
  EXPECT_FALSE(q.DeleteLeaf(section).ok());
}

TEST(TpqTest, DeleteDistinguishedLeafPromotesParent) {
  TagDict dict;
  Tpq q;
  VarId a = q.AddRoot(dict.Intern("a"));
  VarId b = q.AddChild(a, Axis::kChild, dict.Intern("b"));
  q.SetDistinguished(b);
  ASSERT_TRUE(q.DeleteLeaf(b).ok());
  EXPECT_EQ(q.distinguished(), a);
}

TEST(TpqTest, Reparent) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId article = q.root();
  const VarId algorithm = q.Vars()[2];
  ASSERT_TRUE(q.Reparent(algorithm, article).ok());
  EXPECT_EQ(q.Parent(algorithm), article);
  EXPECT_EQ(q.AxisOf(algorithm), Axis::kDescendant);
  EXPECT_TRUE(q.Validate().ok());
}

TEST(TpqTest, ReparentRejectsIntoOwnSubtree) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId section = q.Vars()[1];
  const VarId algorithm = q.Vars()[2];
  EXPECT_FALSE(q.Reparent(section, algorithm).ok());
}

TEST(TpqTest, PromoteContains) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId section = q.Vars()[1];
  const VarId paragraph = q.Vars()[3];
  ASSERT_TRUE(q.PromoteContains(paragraph).ok());
  EXPECT_TRUE(q.node(paragraph).contains.empty());
  EXPECT_EQ(q.node(section).contains.size(), 1u);
}

TEST(TpqTest, CanonicalStringIgnoresChildOrderAndVarIds) {
  TagDict dict;
  Tpq a;
  VarId ra = a.AddRoot(dict.Intern("r"));
  a.AddChild(ra, Axis::kChild, dict.Intern("x"));
  a.AddChild(ra, Axis::kDescendant, dict.Intern("y"));

  Tpq b;
  VarId rb = b.AddRoot(dict.Intern("r"));
  b.AddChild(rb, Axis::kDescendant, dict.Intern("y"));
  b.AddChild(rb, Axis::kChild, dict.Intern("x"));

  EXPECT_EQ(a.CanonicalString(), b.CanonicalString());

  Tpq c;
  VarId rc = c.AddRoot(dict.Intern("r"));
  c.AddChild(rc, Axis::kChild, dict.Intern("y"));  // axis differs
  c.AddChild(rc, Axis::kChild, dict.Intern("x"));
  EXPECT_NE(a.CanonicalString(), c.CanonicalString());
}

// --- XPath parser --------------------------------------------------------

TEST(XPathParserTest, ParsesPaperQ1) {
  TagDict dict;
  Result<Tpq> q = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TagDict ref;
  Tpq expected = BuildQ1(&ref);
  EXPECT_EQ(q->size(), 4u);
  EXPECT_EQ(q->distinguished(), q->root());
  // Compare shapes via canonical strings over a shared dictionary.
  Result<Tpq> again = ParseXPath(
      "//article[./section[./paragraph[.contains(\"xml\" and "
      "\"streaming\")] and ./algorithm]]",
      &dict);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(q->CanonicalString(), again->CanonicalString());
}

TEST(XPathParserTest, ParsesDescendantAxis) {
  TagDict dict;
  Result<Tpq> q = ParseXPath("//article[.//algorithm]", &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->size(), 2u);
  const VarId alg = q->Vars()[1];
  EXPECT_EQ(q->AxisOf(alg), Axis::kDescendant);
}

TEST(XPathParserTest, ParsesXMarkQ3) {
  TagDict dict;
  Result<Tpq> q = ParseXPath(
      "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
      "and ./keyword and ./emph] and ./name and ./incategory]",
      &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // item, description, parlist, listitem, mailbox, mail, text, bold,
  // keyword, emph, name, incategory = 12 pattern nodes.
  EXPECT_EQ(q->size(), 12u);
  EXPECT_EQ(q->node(q->distinguished()).tag, dict.Lookup("item"));
}

TEST(XPathParserTest, MainPathSpineSetsDistinguished) {
  TagDict dict;
  Result<Tpq> q = ParseXPath("//article/section/paragraph", &dict);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->node(q->distinguished()).tag, dict.Lookup("paragraph"));
  EXPECT_EQ(q->size(), 3u);
}

TEST(XPathParserTest, ContainsFunctionStyle) {
  TagDict dict;
  Result<Tpq> q =
      ParseXPath("//article[contains(., \"XML\" and \"streaming\")]", &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->node(q->root()).contains.size(), 1u);
}

TEST(XPathParserTest, ContainsChainedOnPredicatePath) {
  TagDict dict;
  Result<Tpq> q = ParseXPath(
      "//article[./section[./paragraph and "
      ".contains(\"XML\" and \"streaming\")]]",
      &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // The contains applies to section (the predicate's context), as in Q2.
  const VarId section = q->Vars()[1];
  EXPECT_EQ(q->node(section).contains.size(), 1u);
}

TEST(XPathParserTest, AttributePredicates) {
  TagDict dict;
  Result<Tpq> q = ParseXPath("//item[@id='item7' and @quantity >= 2]", &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->node(q->root()).attr_preds.size(), 2u);
  EXPECT_EQ(q->node(q->root()).attr_preds[0].op, AttrPred::Op::kEq);
  EXPECT_EQ(q->node(q->root()).attr_preds[1].op, AttrPred::Op::kGe);
}

TEST(XPathParserTest, RejectsStructuralDisjunction) {
  TagDict dict;
  Result<Tpq> q = ParseXPath("//a[./b or ./c]", &dict);
  EXPECT_FALSE(q.ok());
}

TEST(XPathParserTest, RejectsGarbage) {
  TagDict dict;
  EXPECT_FALSE(ParseXPath("", &dict).ok());
  EXPECT_FALSE(ParseXPath("article", &dict).ok());
  EXPECT_FALSE(ParseXPath("//a[", &dict).ok());
  EXPECT_FALSE(ParseXPath("//a]b", &dict).ok());
  EXPECT_FALSE(ParseXPath("//a[.contains(\"x\"]", &dict).ok());
}

TEST(XPathParserTest, WildcardStep) {
  TagDict dict;
  Result<Tpq> q = ParseXPath("//*[./b]", &dict);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->node(q->root()).tag, kInvalidTag);
}

// --- Logical form, closure, core ----------------------------------------

TEST(LogicalTest, Q1LogicalFormMatchesFigure2) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  LogicalQuery lq = ToLogical(q);
  const VarId v1 = q.Vars()[0];
  const VarId v2 = q.Vars()[1];
  const VarId v3 = q.Vars()[2];
  const VarId v4 = q.Vars()[3];
  // Figure 2: 3 pc predicates, 4 tag predicates, 1 contains.
  EXPECT_EQ(lq.preds.size(), 8u);
  EXPECT_TRUE(lq.Has(Predicate::Pc(v1, v2)));
  EXPECT_TRUE(lq.Has(Predicate::Pc(v2, v3)));
  EXPECT_TRUE(lq.Has(Predicate::Pc(v2, v4)));
  EXPECT_TRUE(lq.Has(Predicate::Tag(v1, dict.Lookup("article"))));
  EXPECT_TRUE(lq.Has(Predicate::ContainsKey(
      v4, "(\"xml\" and \"stream\")")));
}

TEST(LogicalTest, Q1ClosureMatchesFigure4) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  LogicalQuery closure = Closure(ToLogical(q));
  const VarId v1 = q.Vars()[0];
  const VarId v2 = q.Vars()[1];
  const VarId v3 = q.Vars()[2];
  const VarId v4 = q.Vars()[3];
  // Figure 4 adds: ad(1,2), ad(2,3), ad(2,4), ad(1,3), ad(1,4),
  // contains(2,E), contains(1,E) — 7 new predicates.
  EXPECT_EQ(closure.preds.size(), 8u + 7u);
  EXPECT_TRUE(closure.Has(Predicate::Ad(v1, v2)));
  EXPECT_TRUE(closure.Has(Predicate::Ad(v2, v3)));
  EXPECT_TRUE(closure.Has(Predicate::Ad(v2, v4)));
  EXPECT_TRUE(closure.Has(Predicate::Ad(v1, v3)));
  EXPECT_TRUE(closure.Has(Predicate::Ad(v1, v4)));
  const std::string key = "(\"xml\" and \"stream\")";
  EXPECT_TRUE(closure.Has(Predicate::ContainsKey(v2, key)));
  EXPECT_TRUE(closure.Has(Predicate::ContainsKey(v1, key)));
}

TEST(LogicalTest, ClosureIsIdempotent) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  LogicalQuery once = Closure(ToLogical(q));
  LogicalQuery twice = Closure(once);
  EXPECT_EQ(once, twice);
}

TEST(LogicalTest, DerivableDetectsRedundancy) {
  // pc(1,2) ^ ad(2,3) ^ ad(1,3): ad(1,3) is redundant (paper, 3.2).
  std::set<Predicate> preds = {Predicate::Pc(1, 2), Predicate::Ad(2, 3),
                               Predicate::Ad(1, 3)};
  EXPECT_TRUE(Derivable(preds, Predicate::Ad(1, 3)));
  EXPECT_FALSE(Derivable(preds, Predicate::Pc(1, 2)));
  EXPECT_FALSE(Derivable(preds, Predicate::Ad(2, 3)));
}

TEST(LogicalTest, CoreOfClosureEqualsOriginal) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  LogicalQuery original = ToLogical(q);
  LogicalQuery core = Core(Closure(original));
  EXPECT_EQ(core.preds, original.preds);
}

TEST(LogicalTest, CoreMatchesFigure5) {
  // Drop pc($2,$3) and ad($2,$3) from Q1's closure; the core must be Q3:
  // pc(1,2) ^ pc(2,4) ^ ad(1,3) + tags + contains(4).
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId v1 = q.Vars()[0];
  const VarId v2 = q.Vars()[1];
  const VarId v3 = q.Vars()[2];
  const VarId v4 = q.Vars()[3];
  LogicalQuery closure = Closure(ToLogical(q));
  closure.preds.erase(Predicate::Pc(v2, v3));
  closure.preds.erase(Predicate::Ad(v2, v3));
  LogicalQuery core = Core(closure);
  EXPECT_TRUE(core.Has(Predicate::Pc(v1, v2)));
  EXPECT_TRUE(core.Has(Predicate::Pc(v2, v4)));
  EXPECT_TRUE(core.Has(Predicate::Ad(v1, v3)));
  EXPECT_FALSE(core.Has(Predicate::Ad(v1, v2)));
  EXPECT_FALSE(core.Has(Predicate::Ad(v1, v4)));
  const std::string key = "(\"xml\" and \"stream\")";
  EXPECT_TRUE(core.Has(Predicate::ContainsKey(v4, key)));
  EXPECT_FALSE(core.Has(Predicate::ContainsKey(v2, key)));
}

TEST(LogicalTest, CoreUniqueRegardlessOfOrder) {
  // Theorem 1 (uniqueness of core): removing redundant predicates in any
  // order converges to the same set. We simulate different orders by
  // shuffling which derivable predicate gets removed first.
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  LogicalQuery closure = Closure(ToLogical(q));
  const LogicalQuery reference = Core(closure);

  std::mt19937 gen(99);
  for (int trial = 0; trial < 20; ++trial) {
    LogicalQuery work = closure;
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Predicate> candidates(work.preds.begin(),
                                        work.preds.end());
      std::shuffle(candidates.begin(), candidates.end(), gen);
      for (const Predicate& p : candidates) {
        if (Derivable(work.preds, p)) {
          work.preds.erase(p);
          changed = true;
          break;
        }
      }
    }
    EXPECT_EQ(work.preds, reference.preds) << "trial " << trial;
  }
}

TEST(LogicalTest, LogicalToTpqRoundTrip) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  Result<Tpq> rebuilt = LogicalToTpq(Closure(ToLogical(q)));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt->CanonicalString(), q.CanonicalString());
  EXPECT_EQ(rebuilt->distinguished(), q.distinguished());
}

TEST(LogicalTest, LogicalToTpqRejectsDisconnected) {
  LogicalQuery lq;
  lq.preds.insert(Predicate::Pc(1, 2));
  lq.preds.insert(Predicate::Pc(3, 4));  // second component
  lq.distinguished = 1;
  EXPECT_FALSE(LogicalToTpq(lq).ok());
}

TEST(LogicalTest, LogicalToTpqRejectsMissingDistinguished) {
  LogicalQuery lq;
  lq.preds.insert(Predicate::Pc(1, 2));
  lq.distinguished = 9;
  EXPECT_FALSE(LogicalToTpq(lq).ok());
}

TEST(LogicalTest, IsValidRelaxationDropAcceptsFigure5Drop) {
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId v2 = q.Vars()[1];
  const VarId v3 = q.Vars()[2];
  LogicalQuery closure = Closure(ToLogical(q));
  EXPECT_TRUE(IsValidRelaxationDrop(
      q, {Predicate::Pc(v2, v3), Predicate::Ad(v2, v3)}));
}

TEST(LogicalTest, IsValidRelaxationDropRejectsRedundantDrop) {
  // Dropping only ad($1,$3) keeps an equivalent query (derivable), so it
  // is not a relaxation (Section 3.3).
  TagDict dict;
  Tpq q = BuildQ1(&dict);
  const VarId v1 = q.Vars()[0];
  const VarId v3 = q.Vars()[2];
  LogicalQuery closure = Closure(ToLogical(q));
  EXPECT_FALSE(IsValidRelaxationDrop(q, {Predicate::Ad(v1, v3)}));
}

TEST(LogicalTest, IsValidRelaxationDropRejectsNonTree) {
  // Dropping only pc($1,$2) (keeping ad($1,$2)) is fine; but dropping
  // pc($1,$2) AND ad($1,$2) disconnects $1 from the rest... actually $2's
  // subtree reconnects via ad($1,$3)/ad($1,$4), so craft a genuinely
  // disconnecting drop: a two-node query losing its only edges.
  TagDict dict;
  Tpq q;
  VarId a = q.AddRoot(dict.Intern("a"));
  q.AddChild(a, Axis::kChild, dict.Intern("b"));
  LogicalQuery closure = Closure(ToLogical(q));
  const VarId b = q.Vars()[1];
  EXPECT_FALSE(IsValidRelaxationDrop(
      q, {Predicate::Pc(a, b), Predicate::Ad(a, b)}));
}

// --- Containment ---------------------------------------------------------

class Figure1ContainmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parse = [&](const char* s) {
      Result<Tpq> q = ParseXPath(s, &dict_);
      EXPECT_TRUE(q.ok()) << q.status().ToString();
      return *std::move(q);
    };
    q1_ = parse(
        "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
        "and \"streaming\")]]]");
    q2_ = parse(
        "//article[./section[./algorithm and ./paragraph and "
        ".contains(\"XML\" and \"streaming\")]]");
    q3_ = parse(
        "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" "
        "and \"streaming\")]]]");
    q4_ = parse(
        "//article[.//algorithm and ./section[./paragraph and "
        ".contains(\"XML\" and \"streaming\")]]");
    q5_ = parse(
        "//article[./section[./paragraph and .contains(\"XML\" and "
        "\"streaming\")]]");
    q6_ = parse("//article[.contains(\"XML\" and \"streaming\")]");
  }

  TagDict dict_;
  Tpq q1_, q2_, q3_, q4_, q5_, q6_;
};

TEST_F(Figure1ContainmentTest, PaperRelationshipsHold) {
  // Q1 ⊂ Q2, Q1 ⊂ Q3, Q2 ⊂ Q4, Q3 ⊂ Q4, Q4 ⊂ Q5, Q5 ⊂ Q6.
  EXPECT_TRUE(ContainedIn(q1_, q2_));
  EXPECT_TRUE(ContainedIn(q1_, q3_));
  EXPECT_TRUE(ContainedIn(q2_, q4_));
  EXPECT_TRUE(ContainedIn(q3_, q4_));
  EXPECT_TRUE(ContainedIn(q4_, q5_));
  EXPECT_TRUE(ContainedIn(q5_, q6_));
  // Transitivity spot-checks.
  EXPECT_TRUE(ContainedIn(q1_, q6_));
  EXPECT_TRUE(ContainedIn(q2_, q5_));
}

TEST_F(Figure1ContainmentTest, StrictnessHolds) {
  EXPECT_FALSE(ContainedIn(q2_, q1_));
  EXPECT_FALSE(ContainedIn(q3_, q1_));
  EXPECT_FALSE(ContainedIn(q4_, q2_));
  EXPECT_FALSE(ContainedIn(q5_, q4_));
  EXPECT_FALSE(ContainedIn(q6_, q5_));
}

TEST_F(Figure1ContainmentTest, IncomparablePairs) {
  EXPECT_FALSE(ContainedIn(q2_, q3_));
  EXPECT_FALSE(ContainedIn(q3_, q2_));
}

TEST_F(Figure1ContainmentTest, SelfContainment) {
  EXPECT_TRUE(ContainedIn(q1_, q1_));
  EXPECT_TRUE(ContainedIn(q6_, q6_));
}

TEST(ContainmentTest, DifferentTagsNotContained) {
  TagDict dict;
  Result<Tpq> a = ParseXPath("//x[./y]", &dict);
  Result<Tpq> b = ParseXPath("//x[./z]", &dict);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(ContainedIn(*a, *b));
  EXPECT_FALSE(ContainedIn(*b, *a));
}

TEST(ContainmentTest, PcContainedInAd) {
  TagDict dict;
  Result<Tpq> pc = ParseXPath("//x[./y]", &dict);
  Result<Tpq> ad = ParseXPath("//x[.//y]", &dict);
  ASSERT_TRUE(pc.ok());
  ASSERT_TRUE(ad.ok());
  EXPECT_TRUE(ContainedIn(*pc, *ad));
  EXPECT_FALSE(ContainedIn(*ad, *pc));
}

// --- Predicate basics ----------------------------------------------------

TEST(PredicateTest, OrderingAndEquality) {
  EXPECT_EQ(Predicate::Pc(1, 2), Predicate::Pc(1, 2));
  EXPECT_NE(Predicate::Pc(1, 2), Predicate::Ad(1, 2));
  EXPECT_LT(Predicate::Pc(1, 2), Predicate::Ad(1, 2));  // kind order
  std::set<Predicate> s = {Predicate::Pc(1, 2), Predicate::Pc(1, 2)};
  EXPECT_EQ(s.size(), 1u);
}

TEST(PredicateTest, ToStringForms) {
  EXPECT_EQ(Predicate::Pc(1, 2).ToString(), "pc($1,$2)");
  EXPECT_EQ(Predicate::Ad(3, 4).ToString(), "ad($3,$4)");
  EXPECT_EQ(Predicate::ContainsKey(4, "\"xml\"").ToString(),
            "contains($4,\"xml\")");
}

TEST(AttrPredTest, NumericAndStringComparison) {
  AttrPred p;
  p.op = AttrPred::Op::kGe;
  p.value = "10";
  EXPECT_TRUE(p.Matches("10"));
  EXPECT_TRUE(p.Matches("11"));
  EXPECT_FALSE(p.Matches("9"));
  // "9" < "10" numerically even though "9" > "10" lexicographically.
  p.op = AttrPred::Op::kLt;
  EXPECT_TRUE(p.Matches("9"));

  AttrPred s;
  s.op = AttrPred::Op::kEq;
  s.value = "item7";
  EXPECT_TRUE(s.Matches("item7"));
  EXPECT_FALSE(s.Matches("item8"));
}

}  // namespace
}  // namespace flexpath
