#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "exec/plan.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/naive_evaluator.h"
#include "tests/test_util.h"

namespace flexpath {
namespace {

/// Small rig bundling a corpus with all engines.
struct Rig {
  explicit Rig(std::vector<std::string> docs)
      : corpus(testing_util::CorpusFromXml(docs)),
        index(corpus.get()),
        stats(corpus.get()),
        ir(corpus.get()),
        processor(&index, &stats, &ir) {}

  Tpq Parse(const char* xpath) {
    Result<Tpq> q = ParseXPath(xpath, corpus->tags());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *std::move(q);
  }

  TopKResult Run(const Tpq& q, size_t k, Algorithm algo = Algorithm::kHybrid,
                 RankScheme scheme = RankScheme::kStructureFirst,
                 Weights weights = {}) {
    TopKOptions opts;
    opts.k = k;
    opts.scheme = scheme;
    opts.weights = std::move(weights);
    Result<TopKResult> r = processor.Run(q, algo, opts);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return *std::move(r);
  }

  std::unique_ptr<Corpus> corpus;
  ElementIndex index;
  DocumentStats stats;
  IrEngine ir;
  TopKProcessor processor;
};

TEST(EvaluatorEdgeTest, WeightsScaleStructuralScores) {
  Rig rig({"<a><b><c/></b></a>", "<a><b/></a>"});
  Tpq q = rig.Parse("//a[./b/c]");
  Weights heavy;
  heavy.structural = 10.0;
  TopKResult result = rig.Run(q, 2, Algorithm::kHybrid,
                              RankScheme::kStructureFirst, heavy);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_NEAR(result.answers[0].score.ss, 20.0, 1e-9);  // exact match
  EXPECT_LT(result.answers[1].score.ss, 20.0);          // relaxed
  // The relaxed answer's score may reach 0 when the dropped predicates'
  // penalty ratios are all 1 (every b/c pair in this corpus is
  // parent-child, so relaxing buys nothing and costs full weight).
  EXPECT_GE(result.answers[1].score.ss, 0.0);
}

TEST(EvaluatorEdgeTest, MultipleContainsOnOneNode) {
  Rig rig({
      "<doc><sec>alpha beta</sec></doc>",
      "<doc><sec>alpha only</sec></doc>",
      "<doc><sec>beta only</sec></doc>",
  });
  Tpq q = rig.Parse(
      "//doc[./sec[.contains(\"alpha\") and .contains(\"beta\")]]");
  EXPECT_EQ(q.ContainsCount(), 2u);
  TopKResult strict = rig.Run(q, 1);
  ASSERT_EQ(strict.answers.size(), 1u);
  EXPECT_EQ(strict.answers[0].node.doc, 0u);
  // ks sums both predicates' contributions.
  EXPECT_GT(strict.answers[0].score.ks, 1.0);
  EXPECT_LE(strict.answers[0].score.ks, 2.0 + 1e-9);

  // Even at k=3 the single-keyword documents stay excluded: the greedy
  // schedule promotes both contains predicates to the root (cheapest
  // steps), after which the keywords are required *somewhere* forever —
  // exactly the paper's stance that answers without the keywords are
  // never relevant (Section 3.1).
  TopKResult relaxed = rig.Run(q, 3);
  EXPECT_EQ(relaxed.answers.size(), 1u);
  EXPECT_EQ(relaxed.answers[0].node.doc, 0u);
}

TEST(EvaluatorEdgeTest, PromotedContainsScoresFromBroaderContext) {
  Rig rig({
      // Keywords inside the paragraph: full structural + keyword score.
      "<article><section><paragraph>rare gold coin</paragraph>"
      "</section></article>",
      // Keywords in the section but outside the paragraph: reached by
      // contains promotion; keyword score comes from the section match.
      "<article><section><title>rare gold finds</title>"
      "<paragraph>unrelated text</paragraph></section></article>",
  });
  Tpq q = rig.Parse(
      "//article[./section/paragraph[.contains(\"rare\" and \"gold\")]]");
  TopKResult result = rig.Run(q, 2);
  ASSERT_EQ(result.answers.size(), 2u);
  EXPECT_EQ(result.answers[0].node.doc, 0u);
  EXPECT_GT(result.answers[0].score.ss, result.answers[1].score.ss);
  EXPECT_GT(result.answers[1].score.ks, 0.0)
      << "promoted contains must still contribute a keyword score";
}

TEST(EvaluatorEdgeTest, NonRootDistinguishedWithRelaxations) {
  Rig rig({
      "<lib><shelf><book><title>x</title></book></shelf>"
      "<shelf><box><book/></box></shelf></lib>",
  });
  // Asks for books directly on a shelf; the boxed book appears through
  // axis generalization; answers are book elements, never shelves.
  Tpq q = rig.Parse("//lib/shelf/book");
  TopKResult result = rig.Run(q, 5);
  ASSERT_EQ(result.answers.size(), 2u);
  const TagId book = std::as_const(*rig.corpus).tags().Lookup("book");
  for (const RankedAnswer& a : result.answers) {
    EXPECT_EQ(rig.corpus->tag(a.node), book);
  }
  EXPECT_GT(result.answers[0].score.ss, result.answers[1].score.ss);
}

TEST(EvaluatorEdgeTest, RecursiveTagsSelfNesting) {
  Rig rig({"<list><list><list/></list></list>"});
  Tpq q = rig.Parse("//list[./list]");
  std::vector<NodeRef> expected = NaiveEvaluate(rig.index, q, &rig.ir);
  ASSERT_EQ(expected.size(), 2u);
  TopKResult result = rig.Run(q, 10);
  // All three lists become answers once the leaf is deletable; the two
  // exact ones first.
  ASSERT_GE(result.answers.size(), 2u);
  EXPECT_NEAR(result.answers[0].score.ss, 1.0, 1e-9);
  EXPECT_NEAR(result.answers[1].score.ss, 1.0, 1e-9);
}

TEST(EvaluatorEdgeTest, AnswersSpanMultipleDocuments) {
  Rig rig({
      "<a><b/></a>",
      "<x><a><b/></a></x>",
      "<a><c/></a>",
  });
  Tpq q = rig.Parse("//a[./b]");
  TopKResult result = rig.Run(q, 5);
  ASSERT_GE(result.answers.size(), 2u);
  std::vector<DocId> docs;
  for (const RankedAnswer& a : result.answers) {
    if (a.score.ss == 1.0) docs.push_back(a.node.doc);
  }
  std::sort(docs.begin(), docs.end());
  EXPECT_EQ(docs, (std::vector<DocId>{0, 1}));
}

TEST(EvaluatorEdgeTest, WildcardPlanRejectedGracefully) {
  Rig rig({"<a><b/></a>"});
  Tpq q = rig.Parse("//*[./b]");
  TopKOptions opts;
  opts.k = 1;
  Result<TopKResult> result = rig.processor.Run(q, Algorithm::kHybrid, opts);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnimplemented);
  // The message points at nothing a library user can call.
  EXPECT_EQ(result.status().message().find("NaiveEvaluate"),
            std::string::npos)
      << result.status().ToString();
}

TEST(EvaluatorEdgeTest, AttrPredsFilterInsideRelaxedPlans) {
  Rig rig({
      "<shop><item price='5'><tag/></item><item price='50'><tag/></item>"
      "<item price='5'/></shop>",
  });
  Tpq q = rig.Parse("//item[@price < 10 and ./tag]");
  TopKResult result = rig.Run(q, 5);
  // Only price-5 items can be answers (value predicates never relax);
  // the tag-less one arrives via leaf deletion.
  ASSERT_EQ(result.answers.size(), 2u);
  const TagId price = std::as_const(*rig.corpus).tags().Lookup("price");
  for (const RankedAnswer& a : result.answers) {
    const std::string* v =
        rig.corpus->doc(a.node.doc).FindAttribute(a.node.node, price);
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, "5");
  }
}

TEST(EvaluatorEdgeTest, ContainsOnInternalNode) {
  Rig rig({
      "<doc><part><chapter>gold here</chapter></part></doc>",
      "<doc><part><chapter>nothing</chapter></part></doc>",
  });
  // contains sits on `part`, an internal pattern node.
  Tpq q = rig.Parse("//doc[./part[.contains(\"gold\") and ./chapter]]");
  TopKResult strict = rig.Run(q, 1);
  ASSERT_EQ(strict.answers.size(), 1u);
  EXPECT_EQ(strict.answers[0].node.doc, 0u);
}

TEST(EvaluatorEdgeTest, DpoKeywordFirstRunsAllRounds) {
  Rig rig({
      "<doc><sec><p>needle</p></sec></doc>",
      "<doc><sec><div><p>needle needle needle</p></div></sec></doc>",
  });
  // Under keyword-first, doc 1 (more occurrences, deeper) may outrank
  // the structurally exact doc 0 — DPO must not stop at the first round.
  Tpq q = rig.Parse("//doc[./sec/p[.contains(\"needle\")]]");
  TopKResult dpo =
      rig.Run(q, 2, Algorithm::kDpo, RankScheme::kKeywordFirst);
  ASSERT_EQ(dpo.answers.size(), 2u);
  EXPECT_GE(dpo.answers[0].score.ks, dpo.answers[1].score.ks);
  TopKResult hybrid =
      rig.Run(q, 2, Algorithm::kHybrid, RankScheme::kKeywordFirst);
  ASSERT_EQ(hybrid.answers.size(), 2u);
  EXPECT_EQ(hybrid.answers[0].node, dpo.answers[0].node);
}

TEST(EvaluatorEdgeTest, CombinedSchemeAgreesAcrossAlgorithms) {
  Rig rig({
      "<doc><sec><p>gold</p></sec></doc>",
      "<doc><sec><p>iron</p><note>gold gold gold</note></sec></doc>",
      "<doc><sec>gold</sec></doc>",
  });
  Tpq q = rig.Parse("//doc[./sec/p[.contains(\"gold\")]]");
  TopKResult sso =
      rig.Run(q, 3, Algorithm::kSso, RankScheme::kCombined);
  TopKResult hybrid =
      rig.Run(q, 3, Algorithm::kHybrid, RankScheme::kCombined);
  ASSERT_EQ(sso.answers.size(), hybrid.answers.size());
  for (size_t i = 0; i < sso.answers.size(); ++i) {
    EXPECT_EQ(sso.answers[i].node, hybrid.answers[i].node);
    EXPECT_NEAR(sso.answers[i].score.Combined(),
                hybrid.answers[i].score.Combined(), 1e-9);
  }
}

TEST(EvaluatorEdgeTest, DominancePruningLosesNoAnswers) {
  // A bushy pattern over a corpus with many independent branch matches:
  // the dominance rule must not change the answer set or scores.
  Rig rig({
      "<r><x><m/><m/><m/></x><y><n/><n/><n/></y><z/></r>",
      "<r><x><m/></x><y><n/></y></r>",
      "<r><x/><y><n/></y><z/></r>",
  });
  Tpq q = rig.Parse("//r[./x/m and ./y/n and ./z]");
  PenaltyModel pm(q, &rig.stats, &rig.ir, Weights{});
  std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
  ASSERT_FALSE(schedule.empty());
  const ScheduleEntry& last = schedule.back();
  Result<JoinPlan> plan =
      JoinPlan::Build(q, last.relaxed, last.dropped, pm, Weights{});
  ASSERT_TRUE(plan.ok());
  PlanEvaluator evaluator(&rig.index, &rig.ir);
  ExecCounters counters;
  std::vector<RankedAnswer> got = evaluator.Evaluate(
      *plan, EvalMode::kHybridBuckets, 0, RankScheme::kStructureFirst, 0.0,
      &counters);
  // Union semantics: every r is an answer of the fully relaxed query.
  std::vector<NodeRef> expected =
      NaiveEvaluate(rig.index, last.relaxed, &rig.ir);
  ASSERT_EQ(got.size(), expected.size());
  // Exact matches keep the full base score.
  std::vector<NodeRef> strict = NaiveEvaluate(rig.index, q, &rig.ir);
  for (const RankedAnswer& a : got) {
    if (std::binary_search(strict.begin(), strict.end(), a.node)) {
      EXPECT_NEAR(a.score.ss, plan->base_score(), 1e-9);
    }
  }
}

TEST(EvaluatorEdgeTest, LargeKExhaustsSpaceWithoutError) {
  Rig rig({"<a><b/></a>", "<a/>", "<c><a><b/></a></c>"});
  Tpq q = rig.Parse("//a[./b]");
  TopKResult result = rig.Run(q, 1000);
  // All three a's eventually qualify (leaf deletion), k exceeds them.
  EXPECT_EQ(result.answers.size(), 3u);
}

}  // namespace
}  // namespace flexpath
