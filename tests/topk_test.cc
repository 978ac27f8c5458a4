#include <algorithm>
#include <cstdint>
#include <set>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "rank/scheme_registry.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/test_util.h"
#include "xmark/generator.h"

namespace flexpath {
namespace {

const char* kQ1 =
    "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" and "
    "\"streaming\")]]]";

/// Shared fixture: article corpus + all engines.
class TopKTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::ArticleCorpus();
    index_ = std::make_unique<ElementIndex>(corpus_.get());
    stats_ = std::make_unique<DocumentStats>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
    processor_ = std::make_unique<TopKProcessor>(index_.get(), stats_.get(),
                                                 ir_.get());
  }

  Tpq Parse(const char* xpath) {
    Result<Tpq> q = ParseXPath(xpath, corpus_->tags());
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return *std::move(q);
  }

  std::string IdOf(NodeRef ref) {
    const TagId id_attr = std::as_const(*corpus_).tags().Lookup("id");
    const std::string* v =
        corpus_->doc(ref.doc).FindAttribute(ref.node, id_attr);
    return v != nullptr ? *v : "?";
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
  std::unique_ptr<TopKProcessor> processor_;
};

TEST_F(TopKTest, ExactAnswersComeFirst) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    Result<TopKResult> result = processor_->Run(q, algo, opts);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    ASSERT_GE(result->answers.size(), 1u) << AlgorithmName(algo);
    // a1 is the only exact match and must rank first with full score 3.
    EXPECT_EQ(IdOf(result->answers[0].node), "a1") << AlgorithmName(algo);
    EXPECT_NEAR(result->answers[0].score.ss, 3.0, 1e-9)
        << AlgorithmName(algo);
  }
}

TEST_F(TopKTest, RelaxationFillsUpToK) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;
  Result<TopKResult> result = processor_->Run(q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(result.ok());
  // a1..a5 are reachable through relaxations; a6 has no keywords anywhere
  // but even it is reachable once the contains is fully dropped via leaf
  // deletion — however it scores lowest. At k=5 we expect the five
  // keyword-bearing articles.
  ASSERT_EQ(result->answers.size(), 5u);
  std::set<std::string> ids;
  for (const RankedAnswer& a : result->answers) ids.insert(IdOf(a.node));
  EXPECT_TRUE(ids.count("a1") > 0);
  EXPECT_GT(result->relaxations_used, 0u);
  // Scores strictly ordered (structure-first, ks tie-break).
  for (size_t i = 1; i < result->answers.size(); ++i) {
    const AnswerScore& prev = result->answers[i - 1].score;
    const AnswerScore& cur = result->answers[i].score;
    EXPECT_FALSE(RanksBefore(cur, prev, RankScheme::kStructureFirst));
  }
}

TEST_F(TopKTest, KOneNeedsNoRelaxation) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 1;
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    Result<TopKResult> result = processor_->Run(q, algo, opts);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->answers.size(), 1u);
    EXPECT_EQ(IdOf(result->answers[0].node), "a1") << AlgorithmName(algo);
  }
}

TEST_F(TopKTest, AlgorithmsAgreeOnAnswerSets) {
  // DPO scores rounds uniformly while SSO/Hybrid score per answer
  // (Section 5.2.1), so exact scores may differ — but with distinct
  // per-answer scores the returned answer sets must coincide.
  Tpq q = Parse(kQ1);
  for (size_t k : {1u, 2u, 3u, 4u, 5u, 6u}) {
    TopKOptions opts;
    opts.k = k;
    std::set<NodeRef> sets[3];
    int i = 0;
    for (Algorithm algo :
         {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
      Result<TopKResult> result = processor_->Run(q, algo, opts);
      ASSERT_TRUE(result.ok()) << AlgorithmName(algo) << " k=" << k;
      for (const RankedAnswer& a : result->answers) {
        sets[i].insert(a.node);
      }
      ++i;
    }
    EXPECT_EQ(sets[1], sets[2]) << "SSO vs Hybrid, k=" << k;
    EXPECT_EQ(sets[0].size(), sets[1].size()) << "DPO vs SSO size, k=" << k;
  }
}

TEST_F(TopKTest, SsoAndHybridScoresIdentical) {
  Tpq q = Parse(kQ1);
  for (size_t k : {2u, 4u, 6u}) {
    TopKOptions opts;
    opts.k = k;
    Result<TopKResult> sso = processor_->Run(q, Algorithm::kSso, opts);
    Result<TopKResult> hybrid = processor_->Run(q, Algorithm::kHybrid, opts);
    ASSERT_TRUE(sso.ok());
    ASSERT_TRUE(hybrid.ok());
    ASSERT_EQ(sso->answers.size(), hybrid->answers.size()) << "k=" << k;
    for (size_t i = 0; i < sso->answers.size(); ++i) {
      EXPECT_EQ(sso->answers[i].node, hybrid->answers[i].node);
      EXPECT_NEAR(sso->answers[i].score.ss, hybrid->answers[i].score.ss,
                  1e-9);
      EXPECT_NEAR(sso->answers[i].score.ks, hybrid->answers[i].score.ks,
                  1e-9);
    }
  }
}

TEST_F(TopKTest, DpoScoresAreLowerBounds) {
  // A DPO answer's uniform round score never exceeds the per-answer
  // score SSO computes for the same node.
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 6;
  Result<TopKResult> dpo = processor_->Run(q, Algorithm::kDpo, opts);
  Result<TopKResult> sso = processor_->Run(q, Algorithm::kSso, opts);
  ASSERT_TRUE(dpo.ok());
  ASSERT_TRUE(sso.ok());
  for (const RankedAnswer& d : dpo->answers) {
    for (const RankedAnswer& s : sso->answers) {
      if (d.node == s.node) {
        EXPECT_LE(d.score.ss, s.score.ss + 1e-9);
      }
    }
  }
}

TEST_F(TopKTest, KeywordFirstRanksByKs) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;
  opts.scheme = RankScheme::kKeywordFirst;
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    Result<TopKResult> result = processor_->Run(q, algo, opts);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    for (size_t i = 1; i < result->answers.size(); ++i) {
      EXPECT_GE(result->answers[i - 1].score.ks,
                result->answers[i].score.ks - 1e-9)
          << AlgorithmName(algo);
    }
  }
}

TEST_F(TopKTest, CombinedSchemeOrdersBySum) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;
  opts.scheme = RankScheme::kCombined;
  Result<TopKResult> result = processor_->Run(q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->answers.size(); ++i) {
    EXPECT_GE(result->answers[i - 1].score.Combined(),
              result->answers[i].score.Combined() - 1e-9);
  }
}

/// The process-wide registry's view of the ExecCounters fields, in
/// VisitFields order: the counter "exec.<field>" for a summed field
/// (query.rounds_pruned_static for the static pruning count) and the
/// gauge "exec.<field>" for the high-water mark.
std::vector<int64_t> RegistryCounters() {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::vector<int64_t> out;
  const ExecCounters fields;
  ExecCounters::VisitFields(fields, [&](const char* name, const uint64_t&,
                                        ExecCounters::Agg agg) {
    const std::string field = name;
    if (agg == ExecCounters::Agg::kMax) {
      out.push_back(reg.gauge("exec." + field)->Value());
    } else {
      const char* layer = field == "rounds_pruned_static" ? "query." : "exec.";
      out.push_back(static_cast<int64_t>(reg.counter(layer + field)->Value()));
    }
  });
  return out;
}

TEST_F(TopKTest, DpoCountersIdenticalAcrossThreadCounts) {
  // Regression test for the Run() counter race: DPO rounds used to bump
  // shared counters from worker threads directly, so an 8-thread run
  // could lose or over-count increments (and count rounds a serial run
  // would never have executed). Counters are now accumulated per round
  // and aggregated by the deterministic merge, in round order, only for
  // the rounds the serial stopping rules accept — every field must match
  // the serial run exactly. The registry mirrors the merged counters
  // once per query, so its deltas around each run equal the result's
  // counters too: a speculative round the merge discards counts nowhere.
  auto run = [&](const Tpq& q, const TopKOptions& opts) {
    const std::vector<int64_t> before = RegistryCounters();
    Result<TopKResult> result = processor_->Run(q, Algorithm::kDpo, opts);
    const std::vector<int64_t> after = RegistryCounters();
    if (!result.ok()) return result;
    size_t i = 0;
    ExecCounters::VisitFields(
        result->counters,
        [&](const char* name, const uint64_t& value, ExecCounters::Agg agg) {
          if (agg == ExecCounters::Agg::kMax) {
            EXPECT_GE(after[i], static_cast<int64_t>(value)) << name;
          } else {
            EXPECT_EQ(after[i] - before[i], static_cast<int64_t>(value))
                << name << " at " << opts.num_threads << " threads";
          }
          ++i;
        });
    return result;
  };
  // Q1 at K = 5 stops after its first rounds; the deep query needs every
  // wave of an 8-thread run and stops inside the last one.
  for (const char* xpath :
       {kQ1, "//article[./section[./algorithm and ./paragraph]]"}) {
    Tpq q = Parse(xpath);
    for (RankScheme scheme :
         {RankScheme::kStructureFirst, RankScheme::kCombined}) {
      TopKOptions opts;
      opts.k = 5;
      opts.scheme = scheme;
      opts.num_threads = 1;
      Result<TopKResult> serial = run(q, opts);
      ASSERT_TRUE(serial.ok());

      opts.num_threads = 8;
      Result<TopKResult> parallel = run(q, opts);
      ASSERT_TRUE(parallel.ok());

      const ExecCounters& s = serial->counters;
      parallel->counters.ForEach([&s](const char* name, uint64_t value) {
        uint64_t expected = 0;
        s.ForEach([&](const char* sname, uint64_t svalue) {
          if (std::string_view(sname) == name) expected = svalue;
        });
        EXPECT_EQ(value, expected) << name;
      });
      EXPECT_EQ(parallel->relaxations_used, serial->relaxations_used);
      EXPECT_EQ(parallel->penalty_applied, serial->penalty_applied);
    }
  }
}

TEST_F(TopKTest, TupleBudgetReturnsPartialAnswersFlagged) {
  Tpq q = Parse(kQ1);
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    TopKOptions opts;
    // K beyond what the corpus can yield, so no pass ever reaches it and
    // the between-rounds budget check must fire.
    opts.k = 50;
    opts.max_tuples = 1;
    Result<TopKResult> result = processor_->Run(q, algo, opts);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    // The budget trips after the first round/pass that produced a tuple;
    // the run stops relaxing and hands back what it has.
    EXPECT_TRUE(result->budget_exhausted) << AlgorithmName(algo);
    EXPECT_LT(result->answers.size(), 50u) << AlgorithmName(algo);
    // The exact match is found before any budget check fires — the
    // partial result is a usable prefix, not empty.
    ASSERT_FALSE(result->answers.empty()) << AlgorithmName(algo);
    EXPECT_EQ(IdOf(result->answers[0].node), "a1") << AlgorithmName(algo);
  }
}

TEST_F(TopKTest, NoBudgetRunsAreByteIdenticalToDefaults) {
  Tpq q = Parse(kQ1);
  TopKOptions plain;
  plain.k = 5;
  // Explicit zeros are "disabled", not "zero budget" — same code path.
  TopKOptions zeros = plain;
  zeros.max_cpu_ms = 0.0;
  zeros.max_tuples = 0;
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    Result<TopKResult> a = processor_->Run(q, algo, plain);
    Result<TopKResult> b = processor_->Run(q, algo, zeros);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_FALSE(a->budget_exhausted);
    EXPECT_FALSE(b->budget_exhausted);
    ASSERT_EQ(a->answers.size(), b->answers.size());
    for (size_t i = 0; i < a->answers.size(); ++i) {
      EXPECT_EQ(a->answers[i].node, b->answers[i].node);
      EXPECT_DOUBLE_EQ(a->answers[i].score.ss, b->answers[i].score.ss);
      EXPECT_DOUBLE_EQ(a->answers[i].score.ks, b->answers[i].score.ks);
    }
    a->counters.ForEach([&](const char* name, uint64_t value) {
      EXPECT_EQ(value, [&] {
        uint64_t other = 0;
        b->counters.ForEach([&](const char* n, uint64_t v) {
          if (std::string_view(n) == name) other = v;
        });
        return other;
      }()) << name;
    });
  }
}

TEST_F(TopKTest, CountersRepeatExactlyAndCpuIsMeasured) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;
  Result<TopKResult> first = processor_->Run(q, Algorithm::kDpo, opts);
  Result<TopKResult> second = processor_->Run(q, Algorithm::kDpo, opts);
  ASSERT_TRUE(first.ok() && second.ok());
  // What the run did repeats exactly; what it cost (cpu_ms) is measured
  // and varies run to run, so only its presence is checked.
  std::vector<uint64_t> first_counters;
  first->counters.ForEach([&](const char*, uint64_t value) {
    first_counters.push_back(value);
  });
  std::vector<uint64_t> second_counters;
  second->counters.ForEach([&](const char*, uint64_t value) {
    second_counters.push_back(value);
  });
  EXPECT_EQ(first_counters, second_counters);
  EXPECT_GT(first->counters.plan_passes, 0u);
  EXPECT_GT(first->cpu_ms, 0.0);
  EXPECT_GT(second->cpu_ms, 0.0);
}

TEST_F(TopKTest, RejectsZeroK) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 0;
  EXPECT_FALSE(processor_->Run(q, Algorithm::kHybrid, opts).ok());
}

TEST_F(TopKTest, DpoMakesMorePlanPassesThanSso) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;  // forces several relaxations
  Result<TopKResult> dpo = processor_->Run(q, Algorithm::kDpo, opts);
  Result<TopKResult> sso = processor_->Run(q, Algorithm::kSso, opts);
  ASSERT_TRUE(dpo.ok());
  ASSERT_TRUE(sso.ok());
  EXPECT_GT(dpo->counters.plan_passes, sso->counters.plan_passes);
}

TEST_F(TopKTest, HybridNeverSortsOnScores) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 5;
  Result<TopKResult> hybrid = processor_->Run(q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ(hybrid->counters.score_sorts, 0u);
}

TEST_F(TopKTest, UnknownSchemeIsRejectedUpFront) {
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 3;
  for (unsigned value : {3u, 29u}) {
    opts.scheme = static_cast<RankScheme>(value);
    Result<TopKResult> r = processor_->Run(q, Algorithm::kDpo, opts);
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("unknown rank scheme"),
              std::string::npos)
        << r.status().ToString();
    EXPECT_EQ(r.status().message().find("register"), std::string::npos)
        << r.status().ToString();
  }
}

TEST_F(TopKTest, ThreadCountAboveCeilingIsRejectedUpFront) {
  // Both values fail before PoolFor, so no thread is ever started.
  Tpq q = Parse(kQ1);
  TopKOptions opts;
  opts.k = 3;
  for (size_t threads : {kMaxThreads + 1, SIZE_MAX}) {
    opts.num_threads = threads;
    Result<TopKResult> r = processor_->Run(q, Algorithm::kDpo, opts);
    ASSERT_FALSE(r.ok()) << threads;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("num_threads"), std::string::npos)
        << r.status().ToString();
  }
}

// --- Pruning soundness sweep (TEST_P) --------------------------------------

struct SweepParam {
  size_t k;
  RankScheme scheme;
};

/// Both sweeps run on one indexed 80 KB XMark document (seed 21).
class PruningSoundnessTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  void SetUp() override {
    XMarkOptions gopts;
    gopts.target_bytes = 80000;
    gopts.seed = 21;
    Result<Document> doc = GenerateXMark(gopts, corpus_.tags());
    ASSERT_TRUE(doc.ok());
    corpus_.Add(std::move(doc).value());
    index_ = std::make_unique<ElementIndex>(&corpus_);
    stats_ = std::make_unique<DocumentStats>(&corpus_);
    ir_ = std::make_unique<IrEngine>(&corpus_);
    processor_ = std::make_unique<TopKProcessor>(index_.get(), stats_.get(),
                                                 ir_.get());
  }

  Corpus corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
  std::unique_ptr<TopKProcessor> processor_;
};

TEST_P(PruningSoundnessTest, PrunedRunMatchesUnprunedTopK) {
  // Evaluating with pruning enabled (k) must return the same top-k
  // prefix as evaluating everything and cutting afterwards.
  Result<Tpq> q = ParseXPath(
      "//item[./description/parlist and ./mailbox/mail/text]",
      corpus_.tags());
  ASSERT_TRUE(q.ok());

  const SweepParam param = GetParam();
  TopKOptions opts;
  opts.k = param.k;
  opts.scheme = param.scheme;

  Result<TopKResult> pruned = processor_->Run(*q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(pruned.ok());

  // Reference: huge k (no pruning pressure), then truncate.
  TopKOptions all_opts = opts;
  all_opts.k = 100000;
  Result<TopKResult> full = processor_->Run(*q, Algorithm::kHybrid, all_opts);
  ASSERT_TRUE(full.ok());

  const size_t n = std::min(param.k, full->answers.size());
  ASSERT_EQ(pruned->answers.size(),
            std::min(param.k, pruned->answers.size()));
  ASSERT_GE(pruned->answers.size(), n > 0 ? 1u : 0u);
  // Scores must match position by position (sets can differ on ties).
  for (size_t i = 0; i < std::min(n, pruned->answers.size()); ++i) {
    EXPECT_NEAR(pruned->answers[i].score.ss, full->answers[i].score.ss,
                1e-9)
        << "k=" << param.k << " scheme=" << RankSchemeName(param.scheme)
        << " i=" << i;
  }
}

// DPO stops relaxing where the scheme's kSchemeTable row says it may:
// at K answers for structure-first, once the next round cannot beat the
// K-th answer even with the full keyword mass for combined, never for
// keyword-first. A row that stopped too early would drop a later
// round's answer that outranks one the run kept, so the k-run must be
// exactly the prefix of the exhaustive run under the scheme's full
// order (ss and ks), position by position.
TEST_P(PruningSoundnessTest, DpoStopRuleKeepsExactPrefix) {
  // Q1-Q3 of Section 6, plus three contains queries whose term gives
  // 44, 70 and 25 answers a non-zero keyword score on this corpus. The
  // last one fails if combined's stop margin shrinks to 0.
  const char* queries[] = {
      "//item[./description/parlist]",
      "//item[./description/parlist and ./mailbox/mail/text]",
      "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
      "and ./keyword and ./emph] and ./name and ./incategory]",
      "//item[./description/parlist and "
      "./mailbox/mail/text[.contains(\"he\")]]",
      "//text[./bold and .contains(\"he\")]",
      "//item[./description/parlist and .contains(\"have\")]",
  };
  const SweepParam param = GetParam();
  const bool may_stop =
      SchemeRegistry::Global().Certificate(param.scheme)->stop_rule !=
      DpoStopRule::kExhaustive;
  size_t stopped_early = 0;
  for (const char* xpath : queries) {
    Result<Tpq> q = ParseXPath(xpath, corpus_.tags());
    ASSERT_TRUE(q.ok()) << xpath;
    TopKOptions opts;
    opts.k = param.k;
    opts.scheme = param.scheme;
    Result<TopKResult> top = processor_->Run(*q, Algorithm::kDpo, opts);
    ASSERT_TRUE(top.ok()) << xpath;
    TopKOptions all_opts = opts;
    all_opts.k = 100000;
    Result<TopKResult> full = processor_->Run(*q, Algorithm::kDpo, all_opts);
    ASSERT_TRUE(full.ok()) << xpath;

    ASSERT_EQ(top->answers.size(), std::min(param.k, full->answers.size()))
        << xpath;
    for (size_t i = 0; i < top->answers.size(); ++i) {
      const AnswerScore& a = top->answers[i].score;
      const AnswerScore& b = full->answers[i].score;
      EXPECT_FALSE(RanksBefore(a, b, param.scheme) ||
                   RanksBefore(b, a, param.scheme))
          << xpath << " k=" << param.k
          << " scheme=" << RankSchemeName(param.scheme) << " i=" << i
          << " got (" << a.ss << ", " << a.ks << ") want (" << b.ss << ", "
          << b.ks << ")";
    }
    if (top->relaxations_used < full->relaxations_used) ++stopped_early;
  }
  // The sweep is only worth something if the stop rules actually fire.
  if (!may_stop) {
    EXPECT_EQ(stopped_early, 0u);
  } else if (param.k <= 20) {
    EXPECT_GT(stopped_early, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PruningSoundnessTest,
    ::testing::Values(SweepParam{1, RankScheme::kStructureFirst},
                      SweepParam{5, RankScheme::kStructureFirst},
                      SweepParam{20, RankScheme::kStructureFirst},
                      SweepParam{100, RankScheme::kStructureFirst},
                      SweepParam{5, RankScheme::kKeywordFirst},
                      SweepParam{20, RankScheme::kKeywordFirst},
                      SweepParam{5, RankScheme::kCombined},
                      SweepParam{20, RankScheme::kCombined},
                      SweepParam{100, RankScheme::kCombined}));

// --- Agreement sweep on XMark ----------------------------------------------

class XMarkAgreementTest : public ::testing::TestWithParam<size_t> {};

TEST_P(XMarkAgreementTest, SsoHybridIdenticalOnXMark) {
  Corpus corpus;
  XMarkOptions gopts;
  gopts.target_bytes = 100000;
  gopts.seed = 31;
  Result<Document> doc = GenerateXMark(gopts, corpus.tags());
  ASSERT_TRUE(doc.ok());
  corpus.Add(std::move(doc).value());
  ElementIndex index(&corpus);
  DocumentStats stats(&corpus);
  IrEngine ir(&corpus);
  TopKProcessor processor(&index, &stats, &ir);

  Result<Tpq> q = ParseXPath(
      "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
      "and ./keyword and ./emph] and ./name and ./incategory]",
      corpus.tags());
  ASSERT_TRUE(q.ok());

  TopKOptions opts;
  opts.k = GetParam();
  Result<TopKResult> sso = processor.Run(*q, Algorithm::kSso, opts);
  Result<TopKResult> hybrid = processor.Run(*q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(sso.ok());
  ASSERT_TRUE(hybrid.ok());
  ASSERT_EQ(sso->answers.size(), hybrid->answers.size());
  for (size_t i = 0; i < sso->answers.size(); ++i) {
    EXPECT_NEAR(sso->answers[i].score.ss, hybrid->answers[i].score.ss, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(KSweep, XMarkAgreementTest,
                         ::testing::Values(1, 5, 12, 50, 200));

}  // namespace
}  // namespace flexpath
