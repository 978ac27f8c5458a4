#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "exec/evaluator.h"
#include "exec/plan.h"
#include "exec/selectivity.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "relax/operators.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/logical_reference.h"
#include "tests/naive_evaluator.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace flexpath {
namespace {

// --- Naive evaluator -------------------------------------------------------

class NaiveEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::ArticleCorpus();
    index_ = std::make_unique<ElementIndex>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
  }

  std::vector<std::string> AnswerIds(const std::vector<NodeRef>& answers) {
    std::vector<std::string> out;
    const TagId id_attr = std::as_const(*corpus_).tags().Lookup("id");
    for (NodeRef ref : answers) {
      const std::string* v =
          corpus_->doc(ref.doc).FindAttribute(ref.node, id_attr);
      out.push_back(v != nullptr ? *v : "?");
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<std::string> Eval(const char* xpath) {
    Result<Tpq> q = ParseXPath(xpath, corpus_->tags());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return AnswerIds(NaiveEvaluate(*index_, *q, ir_.get()));
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<IrEngine> ir_;
};

TEST_F(NaiveEvalTest, Figure1AnswerSets) {
  using V = std::vector<std::string>;
  // Q1: only a1 matches exactly.
  EXPECT_EQ(Eval("//article[./section[./algorithm and "
                 "./paragraph[.contains(\"XML\" and \"streaming\")]]]"),
            (V{"a1"}));
  // Q2 admits a2 (keywords in the section, outside paragraphs).
  EXPECT_EQ(Eval("//article[./section[./algorithm and ./paragraph and "
                 ".contains(\"XML\" and \"streaming\")]]"),
            (V{"a1", "a2"}));
  // Q3 admits a3 (algorithm outside the keyword section).
  EXPECT_EQ(Eval("//article[.//algorithm and ./section[./paragraph[ "
                 ".contains(\"XML\" and \"streaming\")]]]"),
            (V{"a1", "a3"}));
  // Q4 = Q2 ∪ Q3 shape.
  EXPECT_EQ(Eval("//article[.//algorithm and ./section[./paragraph and "
                 ".contains(\"XML\" and \"streaming\")]]"),
            (V{"a1", "a2", "a3"}));
  // Q5 drops the algorithm condition; admits a4.
  EXPECT_EQ(Eval("//article[./section[./paragraph and .contains(\"XML\" "
                 "and \"streaming\")]]"),
            (V{"a1", "a2", "a3", "a4"}));
  // Q6: keywords anywhere; admits a5 (abstract) too.
  EXPECT_EQ(Eval("//article[.contains(\"XML\" and \"streaming\")]"),
            (V{"a1", "a2", "a3", "a4", "a5"}));
}

TEST_F(NaiveEvalTest, AttributePredicateFilters) {
  using V = std::vector<std::string>;
  EXPECT_EQ(Eval("//article[@id='a3']"), (V{"a3"}));
  EXPECT_EQ(Eval("//article[@id='zz']"), (V{}));
}

TEST_F(NaiveEvalTest, NonRootDistinguished) {
  Result<Tpq> q = ParseXPath("//article/section/paragraph", corpus_->tags());
  ASSERT_TRUE(q.ok());
  std::vector<NodeRef> answers = NaiveEvaluate(*index_, *q, ir_.get());
  const TagId para = std::as_const(*corpus_).tags().Lookup("paragraph");
  EXPECT_EQ(answers.size(), 6u);
  for (NodeRef ref : answers) {
    EXPECT_EQ(corpus_->tag(ref), para);
  }
}

TEST_F(NaiveEvalTest, WildcardRoot) {
  Result<Tpq> q = ParseXPath("//*[./algorithm]", corpus_->tags());
  ASSERT_TRUE(q.ok());
  std::vector<NodeRef> answers = NaiveEvaluate(*index_, *q, ir_.get());
  // Parents of algorithms: the sections of a1, a2, a6 and a3's appendix.
  EXPECT_EQ(answers.size(), 4u);
}

// --- Plan evaluation == naive evaluation (exact mode) ----------------------

class PlanVsNaiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::ArticleCorpus();
    index_ = std::make_unique<ElementIndex>(corpus_.get());
    stats_ = std::make_unique<DocumentStats>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
  }

  void ExpectPlanMatchesNaive(const char* xpath) {
    Result<Tpq> q = ParseXPath(xpath, corpus_->tags());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    std::vector<NodeRef> expected = NaiveEvaluate(*index_, *q, ir_.get());

    PenaltyModel pm(*q, stats_.get(), ir_.get(), Weights{});
    Result<JoinPlan> plan = JoinPlan::Build(*q, *q, {}, pm, Weights{});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    PlanEvaluator evaluator(index_.get(), ir_.get());
    std::vector<RankedAnswer> got = evaluator.Evaluate(
        *plan, EvalMode::kExact, 0, RankScheme::kStructureFirst, 0.0,
        nullptr);
    std::vector<NodeRef> got_nodes;
    for (const RankedAnswer& a : got) got_nodes.push_back(a.node);
    std::sort(got_nodes.begin(), got_nodes.end());
    EXPECT_EQ(got_nodes, expected) << xpath;
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
};

TEST_F(PlanVsNaiveTest, Figure1Queries) {
  ExpectPlanMatchesNaive(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]");
  ExpectPlanMatchesNaive(
      "//article[.//algorithm and ./section[./paragraph and "
      ".contains(\"XML\" and \"streaming\")]]");
  ExpectPlanMatchesNaive("//article[.contains(\"XML\" and \"streaming\")]");
  ExpectPlanMatchesNaive("//article[./section/paragraph]");
  ExpectPlanMatchesNaive("//article[@id='a2' and ./section]");
}

TEST_F(PlanVsNaiveTest, NonRootDistinguishedPlan) {
  ExpectPlanMatchesNaive("//article/section/paragraph");
  ExpectPlanMatchesNaive("//article[.//algorithm]/section");
}

TEST(PlanVsNaivePropertyTest, RandomQueriesOnXMark) {
  // Exact plan evaluation must agree with the oracle on a real-ish
  // document for a battery of hand-rolled pattern shapes.
  TagDict* dict;
  Corpus corpus;
  dict = corpus.tags();
  XMarkOptions opts;
  opts.target_bytes = 150000;
  opts.seed = 11;
  Result<Document> doc = GenerateXMark(opts, dict);
  ASSERT_TRUE(doc.ok());
  corpus.Add(std::move(doc).value());
  ElementIndex index(&corpus);
  DocumentStats stats(&corpus);
  IrEngine ir(&corpus);
  PlanEvaluator evaluator(&index, &ir);

  const char* queries[] = {
      "//item[./description/parlist]",
      "//item[./description//parlist]",
      "//item[./description/parlist and ./mailbox/mail/text]",
      "//item[./mailbox/mail/text[./bold and ./keyword and ./emph]]",
      "//item[./name and ./incategory]",
      "//listitem[./parlist]",
      "//mail[./text[./bold]]",
      "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
      "and ./keyword and ./emph] and ./name and ./incategory]",
      "//open_auction[./annotation/description and ./bidder]",
      "//item[.contains(\"gold\")]",
      "//item[./description[.contains(\"gold\" or \"silver\")]]",
  };
  for (const char* xpath : queries) {
    Result<Tpq> q = ParseXPath(xpath, corpus.tags());
    ASSERT_TRUE(q.ok()) << xpath;
    std::vector<NodeRef> expected = NaiveEvaluate(index, *q, &ir);
    PenaltyModel pm(*q, &stats, &ir, Weights{});
    Result<JoinPlan> plan = JoinPlan::Build(*q, *q, {}, pm, Weights{});
    ASSERT_TRUE(plan.ok()) << xpath;
    std::vector<RankedAnswer> got = evaluator.Evaluate(
        *plan, EvalMode::kExact, 0, RankScheme::kStructureFirst, 0.0,
        nullptr);
    std::vector<NodeRef> got_nodes;
    for (const RankedAnswer& a : got) got_nodes.push_back(a.node);
    std::sort(got_nodes.begin(), got_nodes.end());
    EXPECT_EQ(got_nodes, expected) << xpath;
  }
}

// --- Relaxed plan evaluation vs relaxation-union oracle ---------------------

TEST_F(PlanVsNaiveTest, EncodedRelaxationsMatchScheduleUnion) {
  // Evaluating a plan with relaxations encoded must return exactly the
  // union of the chain queries' exact answers, and each answer's
  // structural score must equal base − penalty(violated drop set),
  // maximized over the chain queries admitting it.
  Result<Tpq> qr = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus_->tags());
  ASSERT_TRUE(qr.ok());
  Tpq q = *std::move(qr);
  PenaltyModel pm(q, stats_.get(), ir_.get(), Weights{});
  std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
  ASSERT_FALSE(schedule.empty());
  PlanEvaluator evaluator(index_.get(), ir_.get());
  const double base = BaseStructuralScore(q, Weights{});

  for (size_t depth = 1; depth <= schedule.size(); ++depth) {
    const ScheduleEntry& entry = schedule[depth - 1];
    Result<JoinPlan> plan =
        JoinPlan::Build(q, entry.relaxed, entry.dropped, pm, Weights{});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    std::vector<RankedAnswer> got = evaluator.Evaluate(
        *plan, EvalMode::kSsoFlat, 0, RankScheme::kStructureFirst, 0.0,
        nullptr);

    // Union oracle: answers of the most relaxed chain query.
    std::vector<NodeRef> expected =
        NaiveEvaluate(*index_, entry.relaxed, ir_.get());
    std::vector<NodeRef> got_nodes;
    for (const RankedAnswer& a : got) got_nodes.push_back(a.node);
    std::sort(got_nodes.begin(), got_nodes.end());
    EXPECT_EQ(got_nodes, expected) << "depth " << depth;

    // Scores: answers of the *original* query keep the full base score;
    // all scores lie in [base − cumulative_penalty, base].
    std::vector<NodeRef> original = NaiveEvaluate(*index_, q, ir_.get());
    for (const RankedAnswer& a : got) {
      EXPECT_LE(a.score.ss, base + 1e-9);
      EXPECT_GE(a.score.ss, base - entry.cumulative_penalty - 1e-9);
      if (std::binary_search(original.begin(), original.end(), a.node)) {
        EXPECT_NEAR(a.score.ss, base, 1e-9)
            << "exact answers must not be penalized";
      } else {
        EXPECT_LT(a.score.ss, base);
      }
    }
  }
}

TEST_F(PlanVsNaiveTest, HybridBucketsAgreeWithSsoFlat) {
  Result<Tpq> qr = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus_->tags());
  ASSERT_TRUE(qr.ok());
  Tpq q = *std::move(qr);
  PenaltyModel pm(q, stats_.get(), ir_.get(), Weights{});
  std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
  PlanEvaluator evaluator(index_.get(), ir_.get());

  for (size_t depth = 1; depth <= schedule.size(); ++depth) {
    const ScheduleEntry& entry = schedule[depth - 1];
    Result<JoinPlan> plan =
        JoinPlan::Build(q, entry.relaxed, entry.dropped, pm, Weights{});
    ASSERT_TRUE(plan.ok());
    std::vector<RankedAnswer> flat = evaluator.Evaluate(
        *plan, EvalMode::kSsoFlat, 0, RankScheme::kStructureFirst, 0.0,
        nullptr);
    std::vector<RankedAnswer> buckets = evaluator.Evaluate(
        *plan, EvalMode::kHybridBuckets, 0, RankScheme::kStructureFirst,
        0.0, nullptr);
    ASSERT_EQ(flat.size(), buckets.size()) << "depth " << depth;
    for (size_t i = 0; i < flat.size(); ++i) {
      EXPECT_EQ(flat[i].node, buckets[i].node);
      EXPECT_NEAR(flat[i].score.ss, buckets[i].score.ss, 1e-9);
      EXPECT_NEAR(flat[i].score.ks, buckets[i].score.ks, 1e-9);
    }
  }
}

// --- Dominance kernels chosen at plan build ---------------------------------

// //a[./x[./b and ./y]] with b promoted under a (σ), so b anchors at a and
// pc(x,b), ad(x,b) are optional. At b's step x stays live (y anchors at it)
// and b's binding dies: only siblings collide. y's step retires x, so rows
// of different x parents collide. The weight override zeroes π(ad(x,b)):
// a b outside x (violating pc and ad) then ties with a b below x that is
// not its child (violating pc only), with a different violation mask.
class DominanceKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::CorpusFromXml({
        "<r>"
        // a1: the grandchild b comes first, the child b is cheaper.
        "<a id=\"1\"><x><c><b/></c><b/><y/></x></a>"
        // a2: a tie, b below x first, then b outside x.
        "<a id=\"2\"><x><c><b/></c><y/></x><b/></a>"
        // a3: two x parents; only the first has a child b.
        "<a id=\"3\"><x><b/><y/></x><x><y/></x></a>"
        "</r>"});
    index_ = std::make_unique<ElementIndex>(corpus_.get());
    stats_ = std::make_unique<DocumentStats>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
    Result<Tpq> q = ParseXPath("//a[./x[./b and ./y]]", corpus_->tags());
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    q_ = *std::move(q);
    const std::vector<VarId> vars = q_.Vars();  // a, x, b, y
    ASSERT_EQ(vars.size(), 4u);
    pc_xb_ = Predicate::Pc(vars[1], vars[2]);
    ad_xb_ = Predicate::Ad(vars[1], vars[2]);
    w_.overrides[ad_xb_] = 0.0;
    const RelaxOp promote{RelaxOpKind::kSubtreePromotion, vars[2], ""};
    Result<Tpq> relaxed = ApplyOp(q_, promote);
    ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
    relaxed_ = *std::move(relaxed);
    dropped_ = DroppedPredicates(q_, TreeClosure(q_), promote);
    pm_ = std::make_unique<PenaltyModel>(q_, stats_.get(), ir_.get(), w_);
  }

  std::string IdOf(NodeRef ref) const {
    const TagId id_attr = std::as_const(*corpus_).tags().Lookup("id");
    const std::string* v =
        corpus_->doc(ref.doc).FindAttribute(ref.node, id_attr);
    return v != nullptr ? *v : "?";
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
  Tpq q_;
  Tpq relaxed_;
  Predicate pc_xb_;
  Predicate ad_xb_;
  Weights w_;
  std::set<Predicate> dropped_;
  std::unique_ptr<PenaltyModel> pm_;
};

TEST_F(DominanceKernelTest, BuildClassifiesEveryStep) {
  EXPECT_EQ(dropped_, (std::set<Predicate>{pc_xb_, ad_xb_}));
  Result<JoinPlan> plan = JoinPlan::Build(q_, relaxed_, dropped_, *pm_, w_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->steps().size(), 4u);
  EXPECT_EQ(plan->LiveSteps(0), (std::vector<int>{0}));
  EXPECT_EQ(plan->LiveSteps(1), (std::vector<int>{0, 1}));
  EXPECT_EQ(plan->LiveSteps(2), (std::vector<int>{0, 1}));
  EXPECT_EQ(plan->LiveSteps(3), (std::vector<int>{0}));
  EXPECT_EQ(plan->DominanceAt(0), Dominance::kNone);      // a is live
  EXPECT_EQ(plan->DominanceAt(1), Dominance::kNone);      // x is live
  EXPECT_EQ(plan->DominanceAt(2), Dominance::kSiblings);  // b is dead
  EXPECT_EQ(plan->DominanceAt(3), Dominance::kGroups);    // x dies
}

TEST_F(DominanceKernelTest, KernelsKeepTheBestRowPerLiveKey) {
  Result<JoinPlan> plan = JoinPlan::Build(q_, relaxed_, dropped_, *pm_, w_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const double base = plan->base_score();
  const double pi = pm_->Of(pc_xb_);
  ASSERT_GT(pi, 0.0);
  ASSERT_EQ(pm_->Of(ad_xb_), 0.0);
  PlanEvaluator evaluator(index_.get(), ir_.get());

  for (EvalMode mode : {EvalMode::kSsoFlat, EvalMode::kHybridBuckets}) {
    SCOPED_TRACE(mode == EvalMode::kSsoFlat ? "sso" : "hybrid");
    ExecCounters ctr;
    TraceCollector collector;
    std::vector<RankedAnswer> got =
        evaluator.Evaluate(*plan, mode, 0, RankScheme::kStructureFirst, 0.0,
                           &ctr, &collector);
    const QueryTrace trace = collector.Finish();

    // a1 keeps its child b (the cheaper, later sibling); a3 keeps the x
    // parent whose b is a child; a2's two b candidates tie at π.
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(IdOf(got[0].node), "1");
    EXPECT_EQ(IdOf(got[1].node), "3");
    EXPECT_EQ(IdOf(got[2].node), "2");
    EXPECT_EQ(got[0].score.ss, base);
    EXPECT_EQ(got[1].score.ss, base);
    EXPECT_EQ(got[2].score.ss, base - pi);
    for (const RankedAnswer& a : got) EXPECT_EQ(a.score.ks, 0.0);

    // Rows out of each step: 3 a; 4 (a, x); one b per (a, x) parent,
    // although 6 candidates passed; a3's two x rows collapse into one.
    // tuples_created counts every candidate, losing siblings included:
    // 3 + 4 + 6 + 4.
    EXPECT_EQ(ctr.tuples_created, 17u);
    const TraceSpan* scan = trace.root.Find("scan_step");
    ASSERT_NE(scan, nullptr);
    EXPECT_EQ(scan->NumberOr0("tuples_out"), 3.0);
    const std::vector<const TraceSpan*> joins =
        trace.root.ChildrenNamed("join_step");
    ASSERT_EQ(joins.size(), 3u);
    EXPECT_EQ(joins[0]->NumberOr0("tuples_out"), 4.0);
    EXPECT_EQ(joins[1]->NumberOr0("tuples_out"), 4.0);
    EXPECT_EQ(joins[2]->NumberOr0("tuples_out"), 3.0);

    if (mode == EvalMode::kHybridBuckets) {
      // y's step buckets the b block by violation mask: a1 and a3's first
      // x carry none, a3's second x carries {pc, ad}, and a2 carries the
      // mask of its first-seen tied candidate, {pc}: three buckets. Were
      // the later candidate kept, a2 would share {pc, ad} with a3: two.
      EXPECT_EQ(ctr.buckets_peak, 3u);
    }
  }
}

// --- Selectivity estimator --------------------------------------------------

TEST(SelectivityTest, ExactForSingleTag) {
  auto corpus = testing_util::ArticleCorpus();
  DocumentStats stats(corpus.get());
  SelectivityEstimator est(&stats, nullptr);
  Result<Tpq> q = ParseXPath("//article", corpus->tags());
  ASSERT_TRUE(q.ok());
  EXPECT_DOUBLE_EQ(est.EstimateAnswers(*q), 6.0);
}

TEST(SelectivityTest, EdgeFractionsReduceEstimate) {
  auto corpus = testing_util::ArticleCorpus();
  DocumentStats stats(corpus.get());
  SelectivityEstimator est(&stats, nullptr);
  Result<Tpq> all = ParseXPath("//article", corpus->tags());
  Result<Tpq> some = ParseXPath("//article[.//algorithm]", corpus->tags());
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(some.ok());
  EXPECT_LT(est.EstimateAnswers(*some), est.EstimateAnswers(*all));
  // 4 of 6 articles (a1, a2, a3, a6) have an algorithm descendant.
  EXPECT_NEAR(est.EstimateAnswers(*some), 4.0, 1e-9);
}

TEST(SelectivityTest, EstimatesAreFiniteAndNonNegative) {
  // The uniform-independence estimate need not be monotone under
  // relaxation (true answer counts are; the independence approximation
  // is not) — SSO's restart loop covers under-estimates. We check the
  // estimates stay sane along the whole relaxation chain.
  Corpus corpus;
  XMarkOptions gopts;
  gopts.target_bytes = 120000;
  gopts.seed = 3;
  Result<Document> doc = GenerateXMark(gopts, corpus.tags());
  ASSERT_TRUE(doc.ok());
  corpus.Add(std::move(doc).value());
  DocumentStats stats(&corpus);
  IrEngine ir(&corpus);
  SelectivityEstimator est(&stats, &ir);
  Result<Tpq> q = ParseXPath(
      "//item[./description/parlist and ./mailbox/mail/text]",
      corpus.tags());
  ASSERT_TRUE(q.ok());
  PenaltyModel pm(*q, &stats, &ir, Weights{});
  const double total_items =
      static_cast<double>(stats.TagCount(corpus.tags()->Intern("item")));
  EXPECT_GT(est.EstimateAnswers(*q), 0.0);
  for (const ScheduleEntry& e : BuildSchedule(*q, pm)) {
    const double cur = est.EstimateAnswers(e.relaxed);
    EXPECT_GE(cur, 0.0) << e.op.ToString();
    EXPECT_LE(cur, total_items + 1e-9) << e.op.ToString();
  }
}

// --- ExecCounters reflection ----------------------------------------------

// The visitor is the single source of truth for the field list: it must
// enumerate every field exactly once (the static_assert on sizeof pins
// the count at compile time; this pins the visitor to the count).
TEST(ExecCountersTest, VisitFieldsCoversEveryFieldOnce) {
  ExecCounters c;
  std::set<std::string> names;
  size_t visited = 0;
  ExecCounters::VisitFields(
      c, [&](const char* name, const uint64_t&, ExecCounters::Agg) {
        EXPECT_TRUE(names.insert(name).second) << "duplicate field " << name;
        ++visited;
      });
  EXPECT_EQ(visited, ExecCounters::kFieldCount);
  // Spot-check the only high-water-mark field carries the right policy.
  ExecCounters::VisitFields(
      c, [&](const char* name, const uint64_t&, ExecCounters::Agg agg) {
        if (std::string(name) == "buckets_peak") {
          EXPECT_EQ(agg, ExecCounters::Agg::kMax);
        } else {
          EXPECT_EQ(agg, ExecCounters::Agg::kSum) << name;
        }
      });
}

// Differential check that Add() really routes every field through its
// declared aggregation: distinct per-field values, so a dropped or
// swapped field changes the result.
TEST(ExecCountersTest, AddAggregatesEveryFieldByItsPolicy) {
  ExecCounters a, b;
  uint64_t seed = 1;
  ExecCounters::VisitFields(
      a, [&](const char*, uint64_t& value, ExecCounters::Agg) {
        value = seed;
        seed += 10;
      });
  seed = 7;
  ExecCounters::VisitFields(
      b, [&](const char*, uint64_t& value, ExecCounters::Agg) {
        value = seed;
        seed += 3;
      });

  ExecCounters expect_sum = a;  // Hand-computed expectation per field.
  {
    std::vector<uint64_t> b_vals;
    ExecCounters::VisitFields(
        b, [&](const char*, const uint64_t& value, ExecCounters::Agg) {
          b_vals.push_back(value);
        });
    size_t i = 0;
    ExecCounters::VisitFields(
        expect_sum,
        [&](const char*, uint64_t& value, ExecCounters::Agg agg) {
          value = agg == ExecCounters::Agg::kMax
                      ? std::max(value, b_vals[i])
                      : value + b_vals[i];
          ++i;
        });
  }

  ExecCounters sum = a;
  sum.Add(b);
  ExecCounters::VisitFields(
      sum, [&](const char* name, const uint64_t& value, ExecCounters::Agg) {
        uint64_t expected = 0;
        ExecCounters::VisitFields(
            expect_sum, [&](const char* n, const uint64_t& v,
                            ExecCounters::Agg) {
              if (std::string(n) == name) expected = v;
            });
        EXPECT_EQ(value, expected) << name;
      });
  // buckets_peak took the max, not the sum.
  EXPECT_EQ(sum.buckets_peak, std::max(a.buckets_peak, b.buckets_peak));
  EXPECT_EQ(sum.plan_passes, a.plan_passes + b.plan_passes);
}

}  // namespace
}  // namespace flexpath
