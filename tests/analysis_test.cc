// The flexcheck subsystem end to end: the semantic analyzer (one
// positive and one negative case per diagnostic code), the
// relaxation-plan verifier (every scheduler-emitted relaxation over
// 1000 random queries verifies; hand-mutated plans are rejected with
// the right V-code), the static-emptiness proofs behind
// TopKOptions::static_prune, and the pruning itself — provably-empty
// rounds are skipped with byte-identical top-K answers across all three
// algorithms.
#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "analysis/diagnostic.h"
#include "analysis/plan_verifier.h"
#include "common/random.h"
#include "core/flexpath.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/logical.h"
#include "query/tpq.h"
#include "relax/penalty.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/test_util.h"
#include "xml/corpus.h"

namespace flexpath {
namespace {

const char* kArticles[] = {
    R"(<article><title>stream processing</title>
       <section><title>evaluation</title>
         <algorithm>stack based join</algorithm>
         <paragraph>XML streaming evaluation with low memory</paragraph>
       </section>
       <abstract>we present streaming evaluation</abstract></article>)",
    R"(<article><title>engines</title>
       <section><title>XML engines</title>
         <paragraph>we discuss several engines in depth</paragraph>
       </section></article>)",
};

class AnalysisTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* xml : kArticles) {
      Result<DocId> id = fp_.AddDocumentXml(xml);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    ASSERT_TRUE(fp_.Build().ok());
  }

  AnalysisReport Check(const std::string& xpath) {
    Result<AnalysisReport> report = fp_.AnalyzeXPath(xpath);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return report.ok() ? *report : AnalysisReport{};
  }

  FlexPath fp_;
};

// --- Analyzer: one positive and one negative case per code ------------

TEST_F(AnalysisTest, CleanQueryHasNoDiagnostics) {
  const AnalysisReport report =
      Check("//article[./section[./algorithm]]");
  EXPECT_TRUE(report.diagnostics.empty())
      << DiagnosticsJson(report);
  EXPECT_FALSE(report.unsatisfiable());
}

TEST_F(AnalysisTest, Fx001MalformedPattern) {
  const Tpq empty;  // No root: fails Validate().
  const AnalysisReport report = AnalyzeTpq(empty, {});
  ASSERT_TRUE(report.Has(kDiagMalformed)) << DiagnosticsJson(report);
  EXPECT_EQ(report.Find(kDiagMalformed)->severity, DiagSeverity::kError);
  EXPECT_FALSE(Check("//article").Has(kDiagMalformed));
}

TEST_F(AnalysisTest, Fx002ConflictingTags) {
  // Unreachable through a Tpq (one tag per node) but expressible in a
  // raw logical form — e.g. a mutated plan.
  TagDict dict;
  const TagId a = dict.Intern("a");
  const TagId b = dict.Intern("b");
  LogicalQuery q;
  q.distinguished = 1;
  q.preds.insert(Predicate::Tag(1, a));
  q.preds.insert(Predicate::Tag(1, b));
  AnalyzerContext ctx;
  ctx.dict = &dict;
  const AnalysisReport report = AnalyzeLogical(q, ctx);
  ASSERT_TRUE(report.Has(kDiagTagConflict)) << DiagnosticsJson(report);
  EXPECT_TRUE(report.unsatisfiable());

  LogicalQuery ok;
  ok.distinguished = 1;
  ok.preds.insert(Predicate::Tag(1, a));
  EXPECT_FALSE(AnalyzeLogical(ok, ctx).Has(kDiagTagConflict));
}

TEST_F(AnalysisTest, Fx003StructuralCycle) {
  LogicalQuery q;
  q.distinguished = 1;
  q.preds.insert(Predicate::Pc(1, 2));
  q.preds.insert(Predicate::Pc(2, 1));
  const AnalysisReport report = AnalyzeLogical(q, {});
  ASSERT_TRUE(report.Has(kDiagStructuralCycle)) << DiagnosticsJson(report);
  EXPECT_TRUE(report.unsatisfiable());

  LogicalQuery chain;
  chain.distinguished = 1;
  chain.preds.insert(Predicate::Pc(1, 2));
  chain.preds.insert(Predicate::Ad(1, 3));
  EXPECT_FALSE(AnalyzeLogical(chain, {}).Has(kDiagStructuralCycle));
}

TEST_F(AnalysisTest, Fx004DanglingContains) {
  LogicalQuery q;
  q.distinguished = 1;
  q.preds.insert(Predicate::Pc(1, 2));
  q.preds.insert(Predicate::ContainsKey(7, "\"xml\""));  // $7 floats free.
  const AnalysisReport report = AnalyzeLogical(q, {});
  ASSERT_TRUE(report.Has(kDiagDanglingContains)) << DiagnosticsJson(report);

  LogicalQuery attached;
  attached.distinguished = 1;
  attached.preds.insert(Predicate::Pc(1, 2));
  attached.preds.insert(Predicate::ContainsKey(2, "\"xml\""));
  EXPECT_FALSE(AnalyzeLogical(attached, {}).Has(kDiagDanglingContains));
}

TEST_F(AnalysisTest, Fx005UnreachableAnswer) {
  LogicalQuery q;
  q.distinguished = 1;
  q.preds.insert(Predicate::Pc(1, 2));
  q.preds.insert(Predicate::Pc(3, 4));  // Island, no contains.
  const AnalysisReport report = AnalyzeLogical(q, {});
  ASSERT_TRUE(report.Has(kDiagUnreachableAnswer)) << DiagnosticsJson(report);

  LogicalQuery no_dist;
  no_dist.preds.insert(Predicate::Pc(1, 2));
  EXPECT_TRUE(AnalyzeLogical(no_dist, {}).Has(kDiagUnreachableAnswer));

  LogicalQuery connected;
  connected.distinguished = 1;
  connected.preds.insert(Predicate::Pc(1, 2));
  connected.preds.insert(Predicate::Ad(2, 3));
  EXPECT_FALSE(AnalyzeLogical(connected, {}).Has(kDiagUnreachableAnswer));
}

TEST_F(AnalysisTest, Fx101EmptyTag) {
  const AnalysisReport report = Check("//article[./ghosttag]");
  ASSERT_TRUE(report.Has(kDiagEmptyTag)) << DiagnosticsJson(report);
  EXPECT_TRUE(report.unsatisfiable());
  // The offending node's path points into the pattern tree.
  EXPECT_NE(report.Find(kDiagEmptyTag)->path.find("ghosttag"),
            std::string::npos);
  EXPECT_FALSE(Check("//article[./section]").Has(kDiagEmptyTag));
}

TEST_F(AnalysisTest, Fx102EmptyContains) {
  const AnalysisReport report =
      Check("//article[.contains(\"zyzzyva\")]");
  ASSERT_TRUE(report.Has(kDiagEmptyContains)) << DiagnosticsJson(report);
  EXPECT_FALSE(
      Check("//article[.contains(\"streaming\")]").Has(kDiagEmptyContains));
}

TEST_F(AnalysisTest, Fx103DeadEdge) {
  // Both tags exist, but no <abstract> ever has an <algorithm> below it.
  const AnalysisReport report = Check("//abstract[.//algorithm]");
  ASSERT_TRUE(report.Has(kDiagDeadEdge)) << DiagnosticsJson(report);
  EXPECT_FALSE(report.Has(kDiagEmptyTag));
  EXPECT_FALSE(Check("//section[./algorithm]").Has(kDiagDeadEdge));
}

TEST_F(AnalysisTest, Fx103GatedOffUnderTypeHierarchy) {
  // Pair counts are not subtype-aware, so the dead-edge proof is only
  // sound without a TypeHierarchy; with one, it must not fire.
  FlexPath fp;
  const TagId super = fp.tags()->Intern("section");
  const TagId sub = fp.tags()->Intern("appendix");
  ASSERT_TRUE(fp.type_hierarchy()->AddSubtype(super, sub).ok());
  for (const char* xml : kArticles) {
    ASSERT_TRUE(fp.AddDocumentXml(xml).ok());
  }
  ASSERT_TRUE(fp.Build().ok());
  Result<AnalysisReport> report = fp.AnalyzeXPath("//abstract[.//algorithm]");
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->Has(kDiagDeadEdge)) << DiagnosticsJson(*report);
}

TEST_F(AnalysisTest, Fx201RedundantPredicate) {
  // ad(1,2) ∧ contains(2,E) derives contains(1,E): stating it is a
  // wasted DPO round.
  LogicalQuery q;
  q.distinguished = 1;
  q.preds.insert(Predicate::Ad(1, 2));
  q.preds.insert(Predicate::ContainsKey(1, "\"xml\""));
  q.preds.insert(Predicate::ContainsKey(2, "\"xml\""));
  const AnalysisReport report = AnalyzeLogical(q, {});
  ASSERT_TRUE(report.Has(kDiagRedundantPredicate))
      << DiagnosticsJson(report);
  EXPECT_EQ(report.Find(kDiagRedundantPredicate)->severity,
            DiagSeverity::kWarning);

  LogicalQuery minimal;
  minimal.distinguished = 1;
  minimal.preds.insert(Predicate::Ad(1, 2));
  minimal.preds.insert(Predicate::ContainsKey(2, "\"xml\""));
  EXPECT_FALSE(AnalyzeLogical(minimal, {}).Has(kDiagRedundantPredicate));
}

TEST_F(AnalysisTest, DiagnosticsJsonSchema) {
  const AnalysisReport report = Check("//article[./ghosttag]");
  const std::string json = DiagnosticsJson(report);
  EXPECT_NE(json.find("\"errors\":"), std::string::npos);
  EXPECT_NE(json.find("\"unsatisfiable\":true"), std::string::npos);
  EXPECT_NE(json.find("\"code\":\"FX101\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
}

TEST_F(AnalysisTest, VarPathRendersTreeSpine) {
  Result<Tpq> q = fp_.Parse("//article//section[./algorithm]");
  ASSERT_TRUE(q.ok());
  const std::vector<VarId> vars = q->Vars();
  ASSERT_EQ(vars.size(), 3u);
  const TagDict& dict = std::as_const(fp_.corpus()).tags();
  EXPECT_EQ(VarPath(*q, vars[0], &dict), "$1 (/article)");
  EXPECT_EQ(VarPath(*q, vars[1], &dict), "$2 (/article//section)");
  EXPECT_EQ(VarPath(*q, vars[2], &dict),
            "$3 (/article//section/algorithm)");
}

// --- Static emptiness proofs (the predicate behind static_prune) ------

TEST_F(AnalysisTest, ProvablyEmptyReasonCases) {
  const AnalyzerContext ctx = fp_.analyzer_context();
  auto parse = [&](const char* xpath) {
    Result<Tpq> q = fp_.Parse(xpath);
    EXPECT_TRUE(q.ok());
    return *q;
  };
  // Satisfiable queries: cannot be proven empty.
  EXPECT_EQ(ProvablyEmptyReason(parse("//article[./section]"), ctx),
            std::nullopt);
  // Tag with zero elements.
  EXPECT_TRUE(ProvablyEmptyReason(parse("//ghosttag"), ctx).has_value());
  // Contains expression nothing satisfies.
  EXPECT_TRUE(
      ProvablyEmptyReason(parse("//article[.contains(\"zyzzyva\")]"), ctx)
          .has_value());
  // Dead pc/ad edge between two existing tags.
  EXPECT_TRUE(ProvablyEmptyReason(parse("//abstract[.//algorithm]"), ctx)
                  .has_value());
  // Soundness: never claims empty for a query with answers.
  Result<std::vector<QueryAnswer>> answers =
      fp_.Query("//article[./section[./algorithm]]");
  ASSERT_TRUE(answers.ok());
  ASSERT_FALSE(answers->empty());
}

// --- Plan verifier: scheduler output always passes --------------------

TEST_F(AnalysisTest, SchedulerOutputVerifiesOnRealCorpus) {
  Result<Tpq> q = fp_.Parse(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]");
  ASSERT_TRUE(q.ok());
  Result<std::vector<PlanVerdict>> verdicts = fp_.VerifySchedule(*q);
  ASSERT_TRUE(verdicts.ok()) << verdicts.status().ToString();
  ASSERT_FALSE(verdicts->empty());
  for (size_t i = 0; i < verdicts->size(); ++i) {
    EXPECT_TRUE((*verdicts)[i].ok)
        << "entry " << i << ": " << (*verdicts)[i].ToString();
    EXPECT_FALSE((*verdicts)[i].op_path.empty()) << "entry " << i;
  }
}

// Theorem 2 compliance at scale: every relaxation the scheduler emits,
// over 1000 random tree pattern queries, passes all six verifier checks
// — the drop sets are real closure subsets, containment is strict, the
// cores reconstruct, the emitted trees match their bookkeeping, and a
// γ/λ/σ/κ composition reaching each one exists.
TEST(PlanVerifierRandomized, EverySchedulerRelaxationVerifies) {
  Rng rng(20260805);
  Corpus corpus;
  for (int i = 0; i < 2; ++i) {
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 60));
  }
  ElementIndex index(&corpus);
  DocumentStats stats(&corpus);
  IrEngine ir(&corpus);
  AnalyzerContext ctx;
  ctx.index = &index;
  ctx.stats = &stats;
  ctx.ir = &ir;
  ctx.dict = &std::as_const(corpus).tags();

  size_t entries_total = 0;
  for (int iter = 0; iter < 1000; ++iter) {
    const Tpq q = testing_util::RandomTpq(&rng, corpus.tags(), 5);
    PenaltyModel pm(q, &stats, &ir, Weights{});
    const std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
    const std::vector<PlanVerdict> verdicts =
        VerifySchedule(q, schedule, ctx);
    ASSERT_EQ(verdicts.size(), schedule.size());
    for (size_t i = 0; i < verdicts.size(); ++i) {
      ASSERT_TRUE(verdicts[i].ok)
          << "iter " << iter << " entry " << i << " ("
          << schedule[i].op.ToString()
          << "): " << verdicts[i].ToString();
    }
    entries_total += schedule.size();
  }
  // Sanity: the property quantified over a non-trivial universe.
  EXPECT_GT(entries_total, 1000u);
}

// --- Plan verifier: mutated plans are rejected with the right code ----

class PlanMutationTest : public AnalysisTest {
 protected:
  // A schedule entry to mutate, from a query with a multi-step chain.
  void SetUp() override {
    AnalysisTest::SetUp();
    Result<Tpq> q = fp_.Parse("//article[./section[./algorithm]]");
    ASSERT_TRUE(q.ok());
    q_ = std::make_unique<Tpq>(*q);
    PenaltyModel pm(*q_, fp_.stats(), fp_.ir_engine(), Weights{});
    schedule_ = BuildSchedule(*q_, pm);
    ASSERT_GE(schedule_.size(), 2u);
  }

  std::unique_ptr<Tpq> q_;
  std::vector<ScheduleEntry> schedule_;
};

TEST_F(PlanMutationTest, V001EmptyDropSet) {
  ScheduleEntry entry = schedule_[0];
  entry.dropped.clear();
  const PlanVerdict v =
      VerifyRelaxation(*q_, entry, fp_.analyzer_context());
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.code, kVerdictEmptyDrop) << v.ToString();
}

TEST_F(PlanMutationTest, V002DropOutsideClosure) {
  ScheduleEntry entry = schedule_[0];
  entry.dropped.insert(Predicate::Pc(97, 98));
  const PlanVerdict v =
      VerifyRelaxation(*q_, entry, fp_.analyzer_context());
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.code, kVerdictDropNotInClosure) << v.ToString();
}

TEST_F(PlanMutationTest, V003NonStrictContainment) {
  // Dropping only a derivable predicate leaves an equivalent remainder:
  // for //article/section, ad($1,$2) re-derives from pc($1,$2).
  Result<Tpq> q = fp_.Parse("//article[./section]");
  ASSERT_TRUE(q.ok());
  const std::vector<VarId> vars = q->Vars();
  ScheduleEntry entry;
  entry.relaxed = *q;
  entry.dropped = {Predicate::Ad(vars[0], vars[1])};
  const PlanVerdict v =
      VerifyRelaxation(*q, entry, fp_.analyzer_context());
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.code, kVerdictNotStrict) << v.ToString();
}

TEST_F(PlanMutationTest, V004CoreNotATree) {
  // //a//b//c closes to {ad(1,2), ad(2,3), ad(1,3)}. Dropping only
  // ad($1,$2) leaves ad(1,3) and ad(2,3) with no relation between $1 and
  // $2: $3 has two incomparable ancestors, so the core is not a tree.
  Result<Tpq> q = fp_.Parse("//article//section//algorithm");
  ASSERT_TRUE(q.ok());
  const std::vector<VarId> vars = q->Vars();
  ScheduleEntry entry;
  entry.relaxed = *q;
  entry.dropped = {Predicate::Ad(vars[0], vars[1])};
  const PlanVerdict v =
      VerifyRelaxation(*q, entry, fp_.analyzer_context());
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.code, kVerdictCoreNotTree) << v.ToString();
}

TEST_F(PlanMutationTest, V005RelaxedTreeContradictsDropSet) {
  ScheduleEntry entry = schedule_[0];
  entry.relaxed = *q_;  // Claims to drop predicates but changes nothing.
  const PlanVerdict v =
      VerifyRelaxation(*q_, entry, fp_.analyzer_context());
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.code, kVerdictClosureMismatch) << v.ToString();
}

TEST_F(PlanMutationTest, V006SearchBudgetExhaustion) {
  // With a zero state budget the reachability search cannot run; the
  // verdict must say so rather than pass the entry unverified.
  const PlanVerdict v = VerifyRelaxation(*q_, schedule_[0],
                                         fp_.analyzer_context(),
                                         /*budget=*/0);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.code, kVerdictNoOperatorPath) << v.ToString();
  EXPECT_NE(v.detail.find("budget"), std::string::npos);
}

// --- static_prune: skipped rounds, identical answers ------------------

TEST_F(AnalysisTest, StaticPruneSkipsProvablyEmptyRounds) {
  // The original query requires a <ghosttag> child no article has: round
  // 0 (and every round until the ghost leaf is relaxed away) is provably
  // empty. Under DPO, static_prune skips those rounds — and the top-K
  // output is byte-identical to the unpruned run. SSO/Hybrid pick the
  // encoding level from the same statistics, so their starting pass
  // already sits past the empty prefix and there is nothing left to
  // skip; for them the test pins the identical-output contract.
  Result<Tpq> q = fp_.Parse("//article[./ghosttag and ./section]");
  ASSERT_TRUE(q.ok());
  constexpr Algorithm kAlgos[] = {Algorithm::kDpo, Algorithm::kSso,
                                  Algorithm::kHybrid};
  for (Algorithm algo : kAlgos) {
    TopKOptions opts;
    opts.k = 3;
    opts.num_threads = 1;
    opts.static_prune = false;
    Result<TopKResult> off = fp_.QueryTpq(*q, opts, algo);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    EXPECT_EQ(off->counters.rounds_pruned_static, 0u);

    opts.static_prune = true;
    Result<TopKResult> on = fp_.QueryTpq(*q, opts, algo);
    ASSERT_TRUE(on.ok()) << on.status().ToString();

    if (algo == Algorithm::kDpo) {
      EXPECT_GE(on->counters.rounds_pruned_static, 1u);
    }
    // Relaxation eventually reaches the articles: answers exist, and
    // they are identical to the unpruned run, score for score.
    ASSERT_FALSE(on->answers.empty()) << AlgorithmName(algo);
    ASSERT_EQ(on->answers.size(), off->answers.size()) << AlgorithmName(algo);
    for (size_t i = 0; i < on->answers.size(); ++i) {
      EXPECT_EQ(on->answers[i].node, off->answers[i].node)
          << AlgorithmName(algo) << " answer " << i;
      EXPECT_EQ(on->answers[i].score, off->answers[i].score)
          << AlgorithmName(algo) << " answer " << i;
    }
    EXPECT_EQ(on->relaxations_used, off->relaxations_used)
        << AlgorithmName(algo);
    EXPECT_EQ(on->penalty_applied, off->penalty_applied)
        << AlgorithmName(algo);
    EXPECT_EQ(on->predicates_dropped, off->predicates_dropped)
        << AlgorithmName(algo);
  }
}

TEST_F(AnalysisTest, StaticPruneIsInvisibleOnSatisfiableQueries) {
  // No provable emptiness anywhere in the chain: the option must change
  // nothing at all, counters included.
  Result<Tpq> q = fp_.Parse("//article[./section[./algorithm]]");
  ASSERT_TRUE(q.ok());
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    TopKOptions opts;
    opts.k = 5;
    opts.num_threads = 1;
    opts.static_prune = true;
    Result<TopKResult> on = fp_.QueryTpq(*q, opts, algo);
    opts.static_prune = false;
    Result<TopKResult> off = fp_.QueryTpq(*q, opts, algo);
    ASSERT_TRUE(on.ok() && off.ok());
    EXPECT_EQ(on->counters.rounds_pruned_static, 0u) << AlgorithmName(algo);
    ASSERT_EQ(on->answers.size(), off->answers.size());
    for (size_t i = 0; i < on->answers.size(); ++i) {
      EXPECT_EQ(on->answers[i].node, off->answers[i].node);
      EXPECT_EQ(on->answers[i].score, off->answers[i].score);
    }
    EXPECT_EQ(on->counters.plan_passes, off->counters.plan_passes)
        << AlgorithmName(algo);
  }
}

// Randomized differential: static_prune on/off over random corpora and
// queries — answers, scores and relaxation metadata always identical,
// for all three algorithms (counters are allowed to differ: that is the
// point of the optimization).
TEST(StaticPruneDifferential, OnOffIdenticalTopK) {
  Rng rng(987654);
  for (int iter = 0; iter < 60; ++iter) {
    Corpus corpus;
    for (int d = 0; d < 2; ++d) {
      corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 60));
    }
    ElementIndex index(&corpus);
    DocumentStats stats(&corpus);
    IrEngine ir(&corpus);
    TopKProcessor processor(&index, &stats, &ir);
    const Tpq q = testing_util::RandomTpq(&rng, corpus.tags(), 5);

    for (Algorithm algo :
         {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
      TopKOptions opts;
      opts.k = 5;
      opts.num_threads = 1;
      opts.static_prune = true;
      Result<TopKResult> on = processor.Run(q, algo, opts);
      opts.static_prune = false;
      Result<TopKResult> off = processor.Run(q, algo, opts);
      ASSERT_TRUE(on.ok()) << on.status().ToString();
      ASSERT_TRUE(off.ok()) << off.status().ToString();
      const std::string label = std::string("iter ") +
                                std::to_string(iter) + " " +
                                AlgorithmName(algo);
      ASSERT_EQ(on->answers.size(), off->answers.size()) << label;
      for (size_t i = 0; i < on->answers.size(); ++i) {
        EXPECT_EQ(on->answers[i].node, off->answers[i].node)
            << label << " answer " << i;
        EXPECT_EQ(on->answers[i].score, off->answers[i].score)
            << label << " answer " << i;
      }
      EXPECT_EQ(on->relaxations_used, off->relaxations_used) << label;
      EXPECT_EQ(on->penalty_applied, off->penalty_applied) << label;
      EXPECT_EQ(on->predicates_dropped, off->predicates_dropped) << label;
      EXPECT_EQ(off->counters.rounds_pruned_static, 0u) << label;
    }
  }
}

// Pruned rounds surface in traces: the skipped DPO round's span carries
// the emptiness proof as its static_pruned annotation.
TEST_F(AnalysisTest, PrunedRoundAnnotatesTrace) {
  Result<Tpq> q = fp_.Parse("//article[./ghosttag]");
  ASSERT_TRUE(q.ok());
  TopKOptions opts;
  opts.k = 2;
  opts.num_threads = 1;
  opts.collect_trace = true;
  Result<TopKResult> result = fp_.QueryTpq(*q, opts, Algorithm::kDpo);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->trace, nullptr);
  const TraceSpan* initial = result->trace->root.Find("initial_round");
  ASSERT_NE(initial, nullptr);
  EXPECT_FALSE(initial->TextOr("static_pruned").empty());
}

}  // namespace
}  // namespace flexpath
