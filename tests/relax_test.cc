#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ir/engine.h"
#include "query/logical.h"
#include "query/xpath_parser.h"
#include "relax/operators.h"
#include "relax/penalty.h"
#include "relax/relaxation.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/containment.h"
#include "tests/logical_reference.h"
#include "tests/naive_evaluator.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace flexpath {
namespace {

Tpq Parse(const char* s, TagDict* dict) {
  Result<Tpq> q = ParseXPath(s, dict);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return *std::move(q);
}

// Q1 of the paper (Figure 1a).
const char* kQ1 =
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and "
    "\"streaming\")]]]";

TEST(OperatorsTest, ApplicableOpsOnQ1) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  std::vector<RelaxOp> ops = ApplicableOps(q1);
  // γ on each of the 3 pc edges; λ on the 2 leaves (algorithm,
  // paragraph); σ on algorithm + paragraph (grandparent = article);
  // κ on paragraph's contains.
  int gamma = 0, lambda = 0, sigma = 0, kappa = 0;
  for (const RelaxOp& op : ops) {
    switch (op.kind) {
      case RelaxOpKind::kAxisGeneralization: ++gamma; break;
      case RelaxOpKind::kLeafDeletion: ++lambda; break;
      case RelaxOpKind::kSubtreePromotion: ++sigma; break;
      case RelaxOpKind::kContainsPromotion: ++kappa; break;
    }
  }
  EXPECT_EQ(gamma, 3);
  EXPECT_EQ(lambda, 2);
  EXPECT_EQ(sigma, 2);
  EXPECT_EQ(kappa, 1);
}

TEST(OperatorsTest, KappaProducesQ2) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  Tpq q2 = Parse(
      "//article[./section[./algorithm and ./paragraph and "
      ".contains(\"XML\" and \"streaming\")]]",
      &dict);
  const VarId paragraph = q1.Vars()[3];
  Result<Tpq> relaxed = ApplyOp(
      q1, RelaxOp{RelaxOpKind::kContainsPromotion, paragraph,
                  "(\"xml\" and \"stream\")"});
  ASSERT_TRUE(relaxed.ok()) << relaxed.status().ToString();
  EXPECT_EQ(relaxed->CanonicalString(), q2.CanonicalString());
}

TEST(OperatorsTest, SigmaProducesQ3) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  Tpq q3 = Parse(
      "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      &dict);
  const VarId algorithm = q1.Vars()[2];
  Result<Tpq> relaxed =
      ApplyOp(q1, RelaxOp{RelaxOpKind::kSubtreePromotion, algorithm, ""});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->CanonicalString(), q3.CanonicalString());
}

TEST(OperatorsTest, LambdaDeletesLeafAndPredicates) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  const VarId algorithm = q1.Vars()[2];
  Result<Tpq> relaxed =
      ApplyOp(q1, RelaxOp{RelaxOpKind::kLeafDeletion, algorithm, ""});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->size(), 3u);
  Tpq q5 = Parse(
      "//article[./section[./paragraph[.contains(\"XML\" and "
      "\"streaming\")]]]",
      &dict);
  EXPECT_EQ(relaxed->CanonicalString(), q5.CanonicalString());
}

TEST(OperatorsTest, GammaGeneralizesAxis) {
  TagDict dict;
  Tpq q = Parse("//a[./b]", &dict);
  const VarId b = q.Vars()[1];
  Result<Tpq> relaxed =
      ApplyOp(q, RelaxOp{RelaxOpKind::kAxisGeneralization, b, ""});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->AxisOf(b), Axis::kDescendant);
  // Not applicable twice.
  EXPECT_FALSE(
      ApplyOp(*relaxed, RelaxOp{RelaxOpKind::kAxisGeneralization, b, ""})
          .ok());
}

TEST(OperatorsTest, InapplicableOpsFail) {
  TagDict dict;
  Tpq q = Parse("//a[./b]", &dict);
  const VarId a = q.root();
  const VarId b = q.Vars()[1];
  EXPECT_FALSE(ApplyOp(q, RelaxOp{RelaxOpKind::kLeafDeletion, a, ""}).ok());
  EXPECT_FALSE(
      ApplyOp(q, RelaxOp{RelaxOpKind::kSubtreePromotion, b, ""}).ok());
  EXPECT_FALSE(
      ApplyOp(q, RelaxOp{RelaxOpKind::kContainsPromotion, b, "x"}).ok());
  EXPECT_FALSE(
      ApplyOp(q, RelaxOp{RelaxOpKind::kLeafDeletion, 99, ""}).ok());
}

TEST(OperatorsTest, EveryOpYieldsContainingQuery) {
  // Theorem 2, soundness: ApplyOp(q, op) contains q.
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  for (const RelaxOp& op : ApplicableOps(q1)) {
    Result<Tpq> relaxed = ApplyOp(q1, op);
    ASSERT_TRUE(relaxed.ok()) << op.ToString();
    EXPECT_TRUE(ContainedIn(q1, *relaxed)) << op.ToString();
    EXPECT_FALSE(ContainedIn(*relaxed, q1))
        << op.ToString() << " should be a strict relaxation";
  }
}

TEST(OperatorsTest, DroppedPredicatesMatchDefinition) {
  // DroppedPredicates must be exactly Closure(q) − Closure(op(q)), and a
  // valid relaxation drop per Definition 1.
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  const LogicalQuery closure = Closure(ToLogical(q1));
  for (const RelaxOp& op : ApplicableOps(q1)) {
    std::set<Predicate> dropped = DroppedPredicates(q1, closure, op);
    ASSERT_FALSE(dropped.empty()) << op.ToString();
    EXPECT_TRUE(IsValidRelaxationDrop(q1, dropped))
        << op.ToString();
  }
}

TEST(OperatorsTest, GammaDropsExactlyPc) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  const VarId article = q1.Vars()[0];
  const VarId section = q1.Vars()[1];
  const LogicalQuery closure = Closure(ToLogical(q1));
  std::set<Predicate> dropped = DroppedPredicates(
      q1, closure, RelaxOp{RelaxOpKind::kAxisGeneralization, section, ""});
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_TRUE(dropped.count(Predicate::Pc(article, section)) > 0);
}

TEST(OperatorsTest, LambdaOnContainsLeafPromotesTheContains) {
  // Deleting the paragraph leaf drops its structural predicates and its
  // own contains, but the keyword requirement survives at the parent
  // (contains($2,E), contains($1,E) stay in the closure) — the paper's
  // loosest interpretation still evaluates the FTExp.
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  const VarId v1 = q1.Vars()[0];
  const VarId v2 = q1.Vars()[1];
  const VarId v4 = q1.Vars()[3];
  const LogicalQuery closure = Closure(ToLogical(q1));
  std::set<Predicate> dropped = DroppedPredicates(
      q1, closure, RelaxOp{RelaxOpKind::kLeafDeletion, v4, ""});
  const std::string key = "(\"xml\" and \"stream\")";
  EXPECT_TRUE(dropped.count(Predicate::ContainsKey(v4, key)) > 0);
  EXPECT_FALSE(dropped.count(Predicate::ContainsKey(v2, key)) > 0);
  EXPECT_FALSE(dropped.count(Predicate::ContainsKey(v1, key)) > 0);
  EXPECT_TRUE(dropped.count(Predicate::Pc(v2, v4)) > 0);
  EXPECT_TRUE(dropped.count(Predicate::Ad(v2, v4)) > 0);
  EXPECT_TRUE(dropped.count(Predicate::Ad(v1, v4)) > 0);

  // The relaxed query itself carries the promoted contains at $2.
  Result<Tpq> relaxed =
      ApplyOp(q1, RelaxOp{RelaxOpKind::kLeafDeletion, v4, ""});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_EQ(relaxed->node(v2).contains.size(), 1u);
}

TEST(OperatorsTest, SoundnessAgainstNaiveEvaluator) {
  // Theorem 2 soundness, checked on data: every operator application
  // admits at least the original query's answers.
  auto corpus = testing_util::ArticleCorpus();
  ElementIndex index(corpus.get());
  IrEngine ir(corpus.get());
  TagDict* dict = corpus->tags();
  Tpq q1 = Parse(kQ1, dict);

  std::vector<NodeRef> base = NaiveEvaluate(index, q1, &ir);
  for (const RelaxOp& op : ApplicableOps(q1)) {
    Result<Tpq> relaxed = ApplyOp(q1, op);
    ASSERT_TRUE(relaxed.ok());
    std::vector<NodeRef> relaxed_answers =
        NaiveEvaluate(index, *relaxed, &ir);
    EXPECT_TRUE(std::includes(relaxed_answers.begin(), relaxed_answers.end(),
                              base.begin(), base.end()))
        << op.ToString();
  }
}

TEST(RelaxationSpaceTest, ContainsSelfAndIsDeduplicated) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  std::vector<Tpq> space = RelaxationSpace(q1, 512);
  ASSERT_FALSE(space.empty());
  EXPECT_EQ(space[0].CanonicalString(), q1.CanonicalString());
  std::set<std::string> canon;
  for (const Tpq& q : space) canon.insert(q.CanonicalString());
  EXPECT_EQ(canon.size(), space.size()) << "space must be deduplicated";
  EXPECT_GT(space.size(), 8u);
}

TEST(RelaxationSpaceTest, CoversFigure1Queries) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  std::vector<Tpq> space = RelaxationSpace(q1, 512);
  std::set<std::string> canon;
  for (const Tpq& q : space) canon.insert(q.CanonicalString());

  auto expect_in_space = [&](const char* xpath) {
    Tpq q = Parse(xpath, &dict);
    EXPECT_TRUE(canon.count(q.CanonicalString()) > 0) << xpath;
  };
  // Q2 = κ(Q1); Q3 = σ(Q1); Q4 = κ∘σ; Q5 = λ∘κ... (Figure 1b-e).
  expect_in_space(
      "//article[./section[./algorithm and ./paragraph and "
      ".contains(\"XML\" and \"streaming\")]]");
  expect_in_space(
      "//article[.//algorithm and ./section[./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]");
  expect_in_space(
      "//article[.//algorithm and ./section[./paragraph and "
      ".contains(\"XML\" and \"streaming\")]]");
  expect_in_space(
      "//article[./section[./paragraph[.contains(\"XML\" and "
      "\"streaming\")]]]");
}

TEST(RelaxationSpaceTest, AllMembersAreRelaxations) {
  TagDict dict;
  Tpq q1 = Parse(kQ1, &dict);
  for (const Tpq& q : RelaxationSpace(q1, 64)) {
    EXPECT_TRUE(ContainedIn(q1, q)) << q.CanonicalString();
  }
}

// --- Penalties -----------------------------------------------------------

class PenaltyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::ArticleCorpus();
    stats_ = std::make_unique<DocumentStats>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
  }
  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
};

TEST_F(PenaltyTest, PenaltiesInZeroWeightRange) {
  Tpq q1 = Parse(kQ1, corpus_->tags());
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  for (const Predicate& p : Closure(ToLogical(q1)).preds) {
    if (p.kind == PredKind::kTag) continue;
    EXPECT_GE(pm.Of(p), 0.0) << p.ToString();
    EXPECT_LE(pm.Of(p), 1.0) << p.ToString();
  }
}

TEST_F(PenaltyTest, PcPenaltyReflectsPcAdRatio) {
  // In the article corpus every section is a child of article, so
  // #pc(article,section)/#ad(article,section) = 1: full penalty.
  Tpq q1 = Parse(kQ1, corpus_->tags());
  const VarId article = q1.Vars()[0];
  const VarId section = q1.Vars()[1];
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  EXPECT_DOUBLE_EQ(pm.Of(Predicate::Pc(article, section)), 1.0);
}

TEST_F(PenaltyTest, AdPenaltyIsSparsityScaled) {
  // ad(article, algorithm): 5 pairs over 6 articles * 5 algorithms — a
  // small fraction, so the penalty is well below the weight.
  Tpq q1 = Parse(kQ1, corpus_->tags());
  const VarId v1 = q1.Vars()[0];
  const VarId v3 = q1.Vars()[2];
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  EXPECT_GT(pm.Of(Predicate::Ad(v1, v3)), 0.0);
  EXPECT_LT(pm.Of(Predicate::Ad(v1, v3)), 0.5);
}

TEST_F(PenaltyTest, WeightsScalePenalties) {
  Tpq q1 = Parse(kQ1, corpus_->tags());
  const VarId article = q1.Vars()[0];
  const VarId section = q1.Vars()[1];
  Weights heavy;
  heavy.structural = 5.0;
  PenaltyModel pm(q1, stats_.get(), ir_.get(), heavy);
  EXPECT_DOUBLE_EQ(pm.Of(Predicate::Pc(article, section)), 5.0);
}

TEST_F(PenaltyTest, TagPredicatesCostNothing) {
  // Tag predicates are value-based and never relaxed; they must not
  // contribute to penalties (Section 4.1: "we will assume they are
  // satisfied when computing scores").
  Tpq q1 = Parse(kQ1, corpus_->tags());
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  const VarId v1 = q1.Vars()[0];
  EXPECT_DOUBLE_EQ(
      pm.Of(Predicate::Tag(v1, corpus_->tags()->Lookup("article"))), 0.0);
}

// --- Schedule ------------------------------------------------------------

TEST_F(PenaltyTest, ScheduleIsMonotoneAndValid) {
  Tpq q1 = Parse(kQ1, corpus_->tags());
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  std::vector<ScheduleEntry> schedule = BuildSchedule(q1, pm);
  ASSERT_FALSE(schedule.empty());

  const LogicalQuery closure = Closure(ToLogical(q1));
  std::set<Predicate> prev;
  double prev_penalty = 0.0;
  for (const ScheduleEntry& entry : schedule) {
    // Cumulative drop sets grow.
    EXPECT_TRUE(std::includes(entry.dropped.begin(), entry.dropped.end(),
                              prev.begin(), prev.end()));
    EXPECT_GT(entry.dropped.size(), prev.size());
    // Penalties accumulate.
    EXPECT_GE(entry.cumulative_penalty, prev_penalty);
    // Every chain query is a valid relaxation of the original.
    EXPECT_TRUE(ContainedIn(q1, entry.relaxed)) << entry.op.ToString();
    EXPECT_TRUE(entry.relaxed.Validate().ok());
    prev = entry.dropped;
    prev_penalty = entry.cumulative_penalty;
  }
}

TEST_F(PenaltyTest, ScheduleNeverDeletesDistinguished) {
  Tpq q1 = Parse(kQ1, corpus_->tags());
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  for (const ScheduleEntry& entry : BuildSchedule(q1, pm)) {
    EXPECT_TRUE(entry.relaxed.HasVar(q1.distinguished()));
    EXPECT_EQ(entry.relaxed.distinguished(), q1.distinguished());
  }
}

TEST_F(PenaltyTest, ScheduleAnswersGrowMonotonically) {
  // Each chain query contains the previous: answer sets can only grow.
  ElementIndex index(corpus_.get());
  Tpq q1 = Parse(kQ1, corpus_->tags());
  PenaltyModel pm(q1, stats_.get(), ir_.get(), Weights{});
  std::vector<NodeRef> prev = NaiveEvaluate(index, q1, ir_.get());
  for (const ScheduleEntry& entry : BuildSchedule(q1, pm)) {
    std::vector<NodeRef> cur =
        NaiveEvaluate(index, entry.relaxed, ir_.get());
    EXPECT_TRUE(
        std::includes(cur.begin(), cur.end(), prev.begin(), prev.end()))
        << entry.op.ToString();
    prev = std::move(cur);
  }
}

// --- Schedule vs. the fixpoint reference --------------------------------

// Reference schedule: every candidate operator is applied to a copied Tpq
// and its closure is derived with the Figure 3 fixpoint into a std::set.
// BuildSchedule must reproduce it exactly — same ops, same trees, same
// drop sets, and bit-identical penalty sums.
std::vector<ScheduleEntry> ReferenceBuildSchedule(const Tpq& q,
                                                  const PenaltyModel& pm) {
  const std::set<Predicate> original = Closure(ToLogical(q)).preds;
  std::vector<ScheduleEntry> out;
  Tpq current = q;
  std::set<Predicate> dropped_so_far;
  for (;;) {
    struct Candidate {
      RelaxOp op;
      Tpq relaxed;
      std::set<Predicate> cumulative;
      double marginal_penalty = 0.0;
    };
    std::optional<Candidate> best;
    for (const RelaxOp& op : ApplicableOps(current)) {
      if (op.kind == RelaxOpKind::kLeafDeletion &&
          op.var == current.distinguished()) {
        continue;
      }
      Result<Tpq> relaxed = ApplyOp(current, op);
      if (!relaxed.ok()) continue;
      const std::set<Predicate> remaining =
          Closure(ToLogical(*relaxed)).preds;
      std::set<Predicate> cumulative;
      for (const Predicate& p : original) {
        if (remaining.count(p) == 0) cumulative.insert(p);
      }
      double marginal = 0.0;
      bool grows = false;
      for (const Predicate& p : cumulative) {
        if (dropped_so_far.count(p) == 0) {
          marginal += pm.Of(p);
          grows = true;
        }
      }
      if (!grows) continue;
      if (!best || marginal < best->marginal_penalty ||
          (marginal == best->marginal_penalty && op < best->op)) {
        best = Candidate{op, *std::move(relaxed), std::move(cumulative),
                         marginal};
      }
    }
    if (!best) break;
    ScheduleEntry entry;
    entry.op = best->op;
    entry.relaxed = std::move(best->relaxed);
    entry.dropped = std::move(best->cumulative);
    entry.step_penalty = best->marginal_penalty;
    entry.cumulative_penalty =
        (out.empty() ? 0.0 : out.back().cumulative_penalty) +
        best->marginal_penalty;
    current = entry.relaxed;
    dropped_so_far = entry.dropped;
    out.push_back(std::move(entry));
  }
  return out;
}

// Entry-by-entry equality; penalties compared with ==, not a tolerance.
void ExpectSameAsReference(const Tpq& q, const PenaltyModel& pm,
                           const std::string& label) {
  const std::vector<ScheduleEntry> got = BuildSchedule(q, pm);
  const std::vector<ScheduleEntry> want = ReferenceBuildSchedule(q, pm);
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(label + " entry " + std::to_string(i));
    EXPECT_TRUE(got[i].op == want[i].op)
        << got[i].op.ToString() << " vs " << want[i].op.ToString();
    EXPECT_EQ(got[i].relaxed.CanonicalString(),
              want[i].relaxed.CanonicalString());
    EXPECT_TRUE(ToLogical(got[i].relaxed) == ToLogical(want[i].relaxed));
    EXPECT_TRUE(got[i].dropped == want[i].dropped);
    EXPECT_TRUE(got[i].step_penalty == want[i].step_penalty)
        << got[i].step_penalty << " vs " << want[i].step_penalty;
    EXPECT_TRUE(got[i].cumulative_penalty == want[i].cumulative_penalty)
        << got[i].cumulative_penalty << " vs "
        << want[i].cumulative_penalty;
  }
}

// Weight settings the oracle runs under: the default, skewed per-kind
// weights with per-predicate overrides, all-zero structural weights
// (every structural step ties, so the op tie-break decides), and
// overrides whose floating-point sums depend on the summation order
// ((0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1).
std::vector<Weights> OracleWeights(const Tpq& q) {
  static constexpr double kOrderSensitive[] = {0.1, 0.2, 0.3, 0.7};
  std::vector<Weights> out(4);
  out[1].structural = 0.75;
  out[1].contains = 2.5;
  out[2].structural = 0.0;
  size_t i = 0;
  for (const Predicate& p : Closure(ToLogical(q)).preds) {
    if (p.kind == PredKind::kTag) continue;
    if (i % 3 == 0) out[1].overrides[p] = (i % 2 == 0) ? 0.0 : 4.0;
    out[3].overrides[p] = kOrderSensitive[i % 4];
    ++i;
  }
  return out;
}

TEST(ScheduleOracleTest, PaperQueriesOnXMark) {
  Corpus corpus;
  XMarkOptions opts;  // 1 MB
  Result<Document> doc = GenerateXMark(opts, corpus.tags());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  corpus.Add(std::move(doc).value());
  DocumentStats stats(&corpus);
  IrEngine ir(&corpus);
  const char* queries[] = {
      "//item[./description/parlist]",
      "//item[./description/parlist and ./mailbox/mail/text]",
      "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
      "and ./keyword and ./emph] and ./name and ./incategory]",
      "//item[./description/parlist and ./mailbox/mail/text[.contains("
      "\"gold\")] and .contains(\"gold\")]",
      "//item[./*/parlist and ./mailbox/*/text]",
  };
  for (const char* text : queries) {
    const Tpq q = Parse(text, corpus.tags());
    for (const Weights& w : OracleWeights(q)) {
      PenaltyModel pm(q, &stats, &ir, w);
      ExpectSameAsReference(q, pm, text);
    }
  }
}

TEST(ScheduleOracleTest, RandomQueriesOnRandomCorpora) {
  Rng rng(20261017);
  size_t queries = 0;
  size_t entries = 0;
  for (int c = 0; c < 10; ++c) {
    Corpus corpus;
    for (int d = 0; d < 3; ++d) {
      corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 80));
    }
    DocumentStats stats(&corpus);
    IrEngine ir(&corpus);
    for (int i = 0; i < 25; ++i) {
      Tpq q = testing_util::RandomTpq(&rng, corpus.tags(), 7);
      const std::vector<VarId> vars = q.Vars();
      for (VarId v : vars) {
        if (rng.Bernoulli(0.2)) q.mutable_node(v).tag = kInvalidTag;
      }
      // A second carrier of one expression, sometimes on the same node.
      if (rng.Bernoulli(0.5)) {
        const FtExpr e = FtExpr::And(FtExpr::Term("gold"), FtExpr::Term("red"));
        q.AddContains(vars[rng.Uniform(vars.size())], e);
        q.AddContains(vars[rng.Uniform(vars.size())], e);
      }
      const std::string label = "corpus " + std::to_string(c) + " query " +
                                std::to_string(i) + ": " +
                                q.CanonicalString();
      for (const Weights& w : OracleWeights(q)) {
        PenaltyModel pm(q, &stats, &ir, w);
        ExpectSameAsReference(q, pm, label);
        entries += BuildSchedule(q, pm).size();
      }
      ++queries;
    }
  }
  EXPECT_GE(queries, 200u);
  EXPECT_GT(entries, queries);  // the chains are not trivially empty
}

// --- Tree closure vs. the fixpoint --------------------------------------

void ExpectTreeClosureMatches(const Tpq& q) {
  const LogicalQuery tree = TreeClosure(q);
  const LogicalQuery fixpoint = Closure(ToLogical(q));
  EXPECT_TRUE(tree.preds == fixpoint.preds)
      << "tree:     " << tree.ToString() << "\nfixpoint: "
      << fixpoint.ToString();
  EXPECT_EQ(tree.distinguished, fixpoint.distinguished);
  EXPECT_EQ(tree.exprs.size(), fixpoint.exprs.size());
  EXPECT_EQ(tree.attr_preds.size(), fixpoint.attr_preds.size());
}

TEST(TreeClosureTest, MatchesFixpointOverRelaxationSpaces) {
  Rng rng(1701045);
  TagDict dict;
  size_t members = 0;
  for (int i = 0; i < 60; ++i) {
    Tpq q = testing_util::RandomTpq(&rng, &dict, 5);
    if (rng.Bernoulli(0.3)) q.mutable_node(q.Vars().back()).tag = kInvalidTag;
    for (const Tpq& m : RelaxationSpace(q, 200)) {
      SCOPED_TRACE(m.CanonicalString());
      ExpectTreeClosureMatches(m);
      ++members;
    }
  }
  EXPECT_GT(members, 1000u);
}

TEST(TreeClosureTest, SameExpressionOnTwoCarriersAtDifferentDepths) {
  // a/b//c with "gold" on b and on c: contains(a,"gold") has two
  // derivations, contains(b,"gold") is both stated and derived.
  TagDict dict;
  Tpq q;
  const VarId a = q.AddRoot(dict.Intern("a"));
  const VarId b = q.AddChild(a, Axis::kChild, dict.Intern("b"));
  const VarId c = q.AddChild(b, Axis::kDescendant, dict.Intern("c"));
  q.AddContains(b, FtExpr::Term("gold"));
  q.AddContains(c, FtExpr::Term("gold"));
  ExpectTreeClosureMatches(q);
  const LogicalQuery tree = TreeClosure(q);
  EXPECT_TRUE(tree.Has(Predicate::Ad(a, c)));
  EXPECT_TRUE(tree.Has(Predicate::Contains(a, FtExpr::Term("gold"))));
  EXPECT_FALSE(tree.Has(Predicate::Pc(a, c)));
  // Promoting the deeper copy drops contains(c,"gold") only.
  Result<Tpq> kappa = ApplyOp(
      q, RelaxOp{RelaxOpKind::kContainsPromotion, c,
                 FtExpr::Term("gold").ToString()});
  ASSERT_TRUE(kappa.ok());
  ExpectTreeClosureMatches(*kappa);
  EXPECT_EQ(DroppedPredicates(q, TreeClosure(q),
                              RelaxOp{RelaxOpKind::kContainsPromotion, c,
                                      FtExpr::Term("gold").ToString()}),
            std::set<Predicate>{Predicate::Contains(c, FtExpr::Term("gold"))});
}

TEST(TreeClosureTest, DeletingAContainsLeafPromotesToTheParent) {
  TagDict dict;
  Tpq q = Parse(kQ1, &dict);
  const VarId section = q.Vars()[1];
  const VarId paragraph = q.Vars()[3];
  Result<Tpq> lambda =
      ApplyOp(q, RelaxOp{RelaxOpKind::kLeafDeletion, paragraph, ""});
  ASSERT_TRUE(lambda.ok());
  ExpectTreeClosureMatches(*lambda);
  const std::string key = q.node(paragraph).contains[0].ToString();
  EXPECT_TRUE(TreeClosure(*lambda).Has(Predicate::ContainsKey(section, key)));
  EXPECT_FALSE(
      TreeClosure(*lambda).Has(Predicate::ContainsKey(paragraph, key)));
}

}  // namespace
}  // namespace flexpath
