#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "rank/scheme_registry.h"
#include "rank/score.h"
#include "relax/penalty.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "tests/logical_reference.h"
#include "tests/test_util.h"

namespace flexpath {
namespace {

TEST(RankSchemeTest, Names) {
  EXPECT_STREQ(RankSchemeName(RankScheme::kStructureFirst),
               "structure-first");
  EXPECT_STREQ(RankSchemeName(RankScheme::kKeywordFirst), "keyword-first");
  EXPECT_STREQ(RankSchemeName(RankScheme::kCombined), "combined");
}

TEST(RankSchemeTest, StructureFirstLexicographic) {
  AnswerScore high_ss{3.0, 0.1};
  AnswerScore low_ss_high_ks{2.0, 0.9};
  EXPECT_TRUE(RanksBefore(high_ss, low_ss_high_ks,
                          RankScheme::kStructureFirst));
  EXPECT_FALSE(RanksBefore(low_ss_high_ks, high_ss,
                           RankScheme::kStructureFirst));
  // Equal ss: ks breaks the tie.
  AnswerScore a{3.0, 0.5};
  AnswerScore b{3.0, 0.2};
  EXPECT_TRUE(RanksBefore(a, b, RankScheme::kStructureFirst));
}

TEST(RankSchemeTest, KeywordFirstLexicographic) {
  AnswerScore high_ks{1.0, 0.9};
  AnswerScore high_ss{3.0, 0.1};
  EXPECT_TRUE(RanksBefore(high_ks, high_ss, RankScheme::kKeywordFirst));
  EXPECT_FALSE(RanksBefore(high_ss, high_ks, RankScheme::kKeywordFirst));
}

TEST(RankSchemeTest, CombinedSums) {
  AnswerScore a{2.0, 0.9};  // 2.9
  AnswerScore b{2.5, 0.2};  // 2.7
  EXPECT_TRUE(RanksBefore(a, b, RankScheme::kCombined));
  EXPECT_FALSE(RanksBefore(b, a, RankScheme::kCombined));
}

TEST(RankSchemeTest, TiesCompareFalseBothWays) {
  AnswerScore a{2.0, 0.5};
  AnswerScore b{2.0, 0.5};
  for (RankScheme s : {RankScheme::kStructureFirst,
                       RankScheme::kKeywordFirst, RankScheme::kCombined}) {
    EXPECT_FALSE(RanksBefore(a, b, s));
    EXPECT_FALSE(RanksBefore(b, a, s));
  }
}

// kSchemeTable, row by row (DESIGN.md §16 gives the Theorem 3 argument
// for each).
TEST(SchemeTableTest, StructureFirstStopsAtKAndPrunesOnSsAlone) {
  const SchemeCertificate* row =
      SchemeRegistry::Global().Certificate(RankScheme::kStructureFirst);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->stop_rule, DpoStopRule::kAtK);
  EXPECT_TRUE(row->threshold_pruning);
  EXPECT_EQ(row->prune_ks_factor, 0.0);
}

TEST(SchemeTableTest, KeywordFirstRunsExhaustiveAndNeverPrunes) {
  const SchemeCertificate* row =
      SchemeRegistry::Global().Certificate(RankScheme::kKeywordFirst);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->stop_rule, DpoStopRule::kExhaustive);
  EXPECT_FALSE(row->threshold_pruning);
}

TEST(SchemeTableTest, CombinedStopsOnKeywordMassMargin) {
  const SchemeCertificate* row =
      SchemeRegistry::Global().Certificate(RankScheme::kCombined);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->stop_rule, DpoStopRule::kPenaltyMargin);
  EXPECT_EQ(row->stop_margin_factor, 1.0);
  EXPECT_TRUE(row->threshold_pruning);
  EXPECT_EQ(row->prune_ks_factor, 1.0);
}

TEST(SchemeTableTest, OutOfRangeSchemeHasNoRow) {
  for (unsigned value : {3u, 29u, 255u}) {
    const auto scheme = static_cast<RankScheme>(value);
    EXPECT_EQ(SchemeRegistry::Global().Certificate(scheme), nullptr);
    EXPECT_STREQ(RankSchemeName(scheme), "unknown");
  }
}

TEST(BaseScoreTest, CountsStructuralEdges) {
  TagDict dict;
  Result<Tpq> q1 = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      &dict);
  ASSERT_TRUE(q1.ok());
  // Q1 has three pc edges; uniform unit weights give ss = 3 (Example 1).
  EXPECT_DOUBLE_EQ(BaseStructuralScore(*q1, Weights{}), 3.0);

  Weights w;
  w.structural = 2.0;
  EXPECT_DOUBLE_EQ(BaseStructuralScore(*q1, w), 6.0);
}

TEST(BaseScoreTest, SingleNodeQueryScoresZero) {
  TagDict dict;
  Result<Tpq> q6 =
      ParseXPath("//article[.contains(\"XML\" and \"streaming\")]", &dict);
  ASSERT_TRUE(q6.ok());
  EXPECT_DOUBLE_EQ(BaseStructuralScore(*q6, Weights{}), 0.0);
}

// Order invariance (Theorem 3): the score of an answer to a relaxation
// depends only on which predicates were dropped, not on the order in
// which the drops happened. We verify that the cumulative drop set's
// penalty is the same along any operator order that reaches the same
// relaxed query.
TEST(OrderInvarianceTest, SameDropSetSamePenalty) {
  auto corpus = testing_util::ArticleCorpus();
  DocumentStats stats(corpus.get());
  IrEngine ir(corpus.get());
  TagDict* dict = corpus->tags();
  Result<Tpq> q1r = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      dict);
  ASSERT_TRUE(q1r.ok());
  Tpq q1 = *std::move(q1r);
  PenaltyModel pm(q1, &stats, &ir, Weights{});

  const LogicalQuery closure = Closure(ToLogical(q1));
  const VarId v3 = q1.Vars()[2];
  const VarId v4 = q1.Vars()[3];
  const RelaxOp sigma{RelaxOpKind::kSubtreePromotion, v3, ""};
  const RelaxOp kappa{RelaxOpKind::kContainsPromotion, v4,
                      "(\"xml\" and \"stream\")"};

  // Path A: sigma then kappa. Path B: kappa then sigma.
  Result<Tpq> a1 = ApplyOp(q1, sigma);
  ASSERT_TRUE(a1.ok());
  Result<Tpq> a2 = ApplyOp(*a1, kappa);
  ASSERT_TRUE(a2.ok());
  Result<Tpq> b1 = ApplyOp(q1, kappa);
  ASSERT_TRUE(b1.ok());
  Result<Tpq> b2 = ApplyOp(*b1, sigma);
  ASSERT_TRUE(b2.ok());

  EXPECT_EQ(a2->CanonicalString(), b2->CanonicalString());

  // The drop sets relative to the original closure must agree, hence so
  // do the penalties (and therefore the scores of any answer).
  auto drop_set = [&](const Tpq& relaxed) {
    std::set<Predicate> dropped;
    const LogicalQuery rc = Closure(ToLogical(relaxed));
    for (const Predicate& p : closure.preds) {
      if (rc.preds.count(p) == 0) dropped.insert(p);
    }
    return dropped;
  };
  const std::set<Predicate> da = drop_set(*a2);
  const std::set<Predicate> db = drop_set(*b2);
  EXPECT_EQ(da, db);
  EXPECT_DOUBLE_EQ(pm.Sum(da), pm.Sum(db));
}

TEST(OrderInvarianceTest, RandomOperatorOrders) {
  auto corpus = testing_util::ArticleCorpus();
  DocumentStats stats(corpus.get());
  IrEngine ir(corpus.get());
  Result<Tpq> qr = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]] and ./title]",
      corpus->tags());
  ASSERT_TRUE(qr.ok());
  Tpq q = *std::move(qr);
  PenaltyModel pm(q, &stats, &ir, Weights{});
  const LogicalQuery closure = Closure(ToLogical(q));

  // Apply a fixed multiset of independent operators in random orders; the
  // final query and its penalty must not depend on the order.
  const VarId title = q.Vars()[4];
  const VarId section = q.Vars()[1];
  const VarId paragraph = q.Vars()[3];
  std::vector<RelaxOp> ops = {
      RelaxOp{RelaxOpKind::kLeafDeletion, title, ""},
      RelaxOp{RelaxOpKind::kAxisGeneralization, section, ""},
      RelaxOp{RelaxOpKind::kContainsPromotion, paragraph,
              "(\"xml\" and \"stream\")"},
  };

  std::mt19937 gen(7);
  std::string canonical;
  double penalty = -1.0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<RelaxOp> order = ops;
    std::shuffle(order.begin(), order.end(), gen);
    Tpq cur = q;
    for (const RelaxOp& op : order) {
      Result<Tpq> next = ApplyOp(cur, op);
      ASSERT_TRUE(next.ok()) << op.ToString();
      cur = *std::move(next);
    }
    std::set<Predicate> dropped;
    const LogicalQuery rc = Closure(ToLogical(cur));
    for (const Predicate& p : closure.preds) {
      if (rc.preds.count(p) == 0) dropped.insert(p);
    }
    const double this_penalty = pm.Sum(dropped);
    if (trial == 0) {
      canonical = cur.CanonicalString();
      penalty = this_penalty;
    } else {
      EXPECT_EQ(cur.CanonicalString(), canonical) << "trial " << trial;
      EXPECT_DOUBLE_EQ(this_penalty, penalty) << "trial " << trial;
    }
  }
}

// Relevance scoring (property 1, Section 4.2): relaxing can only lower
// the structural score of the newly admitted answers.
TEST(RelevanceScoringTest, PenaltiesOnlyDecreaseScores) {
  auto corpus = testing_util::ArticleCorpus();
  DocumentStats stats(corpus.get());
  IrEngine ir(corpus.get());
  Result<Tpq> qr = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus->tags());
  ASSERT_TRUE(qr.ok());
  PenaltyModel pm(*qr, &stats, &ir, Weights{});
  const double base = BaseStructuralScore(*qr, Weights{});
  double prev = base;
  for (const ScheduleEntry& entry : BuildSchedule(*qr, pm)) {
    const double ss = base - entry.cumulative_penalty;
    EXPECT_LE(ss, prev + 1e-12) << entry.op.ToString();
    prev = ss;
  }
}

}  // namespace
}  // namespace flexpath
