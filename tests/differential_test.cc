// Differential-testing harness for the top-K pipeline (DESIGN.md §10):
// random tree pattern queries over random documents, checked two ways.
//   1. The join-based PlanEvaluator against the NaiveEvaluate oracle, at
//      every depth of the relaxation schedule (exact evaluation of each
//      chain query), with the schedule's penalty arithmetic verified.
//   2. Parallel runs (threads ∈ {2, 8}) against the serial baseline
//      (threads = 1) for all three algorithms and all three rank
//      schemes: answers, scores, penalties and every execution counter
//      must be identical — parallelism must never change results.
// Plus a repetition test: the same Hybrid query run 20 times on an
// 8-thread pool yields byte-identical ranked output every time.
#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/flexpath.h"
#include "exec/evaluator.h"
#include "exec/naive_evaluator.h"
#include "exec/plan.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/tpq.h"
#include "relax/penalty.h"
#include "relax/schedule.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/test_util.h"
#include "xml/corpus.h"

namespace flexpath {
namespace {

// A random corpus plus the index/stats/IR stack built over it.
struct Rig {
  Rig(Rng* rng, size_t docs, size_t max_nodes) {
    for (size_t i = 0; i < docs; ++i) {
      corpus.Add(testing_util::RandomDocument(rng, corpus.tags(), max_nodes));
    }
    index = std::make_unique<ElementIndex>(&corpus);
    stats = std::make_unique<DocumentStats>(&corpus);
    ir = std::make_unique<IrEngine>(&corpus);
  }

  Corpus corpus;
  std::unique_ptr<ElementIndex> index;
  std::unique_ptr<DocumentStats> stats;
  std::unique_ptr<IrEngine> ir;
};

std::vector<NodeRef> SortedNodes(const std::vector<RankedAnswer>& answers) {
  std::vector<NodeRef> nodes;
  nodes.reserve(answers.size());
  for (const RankedAnswer& a : answers) nodes.push_back(a.node);
  std::sort(nodes.begin(), nodes.end());
  return nodes;
}

std::map<std::string, uint64_t> CounterMap(const ExecCounters& c) {
  std::map<std::string, uint64_t> m;
  c.ForEach([&](const char* name, uint64_t value) { m[name] = value; });
  return m;
}

// Serializes everything result-shaped about a run; two runs are
// interchangeable iff their fingerprints are equal byte for byte.
std::string Fingerprint(const TopKResult& r) {
  std::string s;
  for (const RankedAnswer& a : r.answers) {
    // Sequential appends: GCC 12's -Wrestrict misfires on chained +.
    s += std::to_string(a.node.doc);
    s += ":";
    s += std::to_string(a.node.node);
    s += "/";
    s += std::to_string(a.score.ss);
    s += "+";
    s += std::to_string(a.score.ks);
    s += ";";
  }
  s += "relaxations=";
  s += std::to_string(r.relaxations_used);
  s += ",penalty=";
  s += std::to_string(r.penalty_applied);
  s += ",dropped=";
  s += std::to_string(r.predicates_dropped);
  ExecCounters c = r.counters;
  // Sequential appends rather than one chained concatenation: GCC 12's
  // -Wrestrict misfires on the chained operator+ form here.
  c.ForEach([&](const char* name, uint64_t value) {
    s += ',';
    s += name;
    s += '=';
    s += std::to_string(value);
  });
  return s;
}

const char* SchemeName(RankScheme s) {
  switch (s) {
    case RankScheme::kStructureFirst: return "structure-first";
    case RankScheme::kKeywordFirst: return "keyword-first";
    case RankScheme::kCombined: return "combined";
  }
  return "?";
}

// 1. Joins vs the oracle, at every relaxation depth. Each chain query
// Q_d is evaluated exactly by both engines; a divergence pinpoints the
// (query, depth) pair. The schedule's penalty chain is checked to be
// consistent (cumulative = Σ step) and non-decreasing on the way.
TEST(DifferentialTest, PlanMatchesOracleAtEveryRelaxationDepth) {
  Rng rng(20260805);
  for (int iter = 0; iter < 120; ++iter) {
    Rig rig(&rng, 2, 60);
    const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);
    PenaltyModel pm(q, rig.stats.get(), rig.ir.get(), Weights{});
    const std::vector<ScheduleEntry> schedule = BuildSchedule(q, pm);
    PlanEvaluator evaluator(rig.index.get(), rig.ir.get());

    double prev_penalty = 0.0;
    for (size_t depth = 0; depth <= schedule.size(); ++depth) {
      const Tpq& relaxed = depth == 0 ? q : schedule[depth - 1].relaxed;
      if (depth > 0) {
        const ScheduleEntry& e = schedule[depth - 1];
        EXPECT_NEAR(e.cumulative_penalty, prev_penalty + e.step_penalty,
                    1e-9)
            << "iter " << iter << " depth " << depth;
        EXPECT_GE(e.step_penalty, 0.0) << "iter " << iter;
        prev_penalty = e.cumulative_penalty;
      }

      const std::vector<NodeRef> expected =
          NaiveEvaluate(*rig.index, relaxed, rig.ir.get());
      Result<JoinPlan> plan = JoinPlan::Build(q, relaxed, {}, pm, Weights{});
      ASSERT_TRUE(plan.ok())
          << plan.status().ToString() << " iter " << iter;
      const std::vector<RankedAnswer> got = evaluator.Evaluate(
          *plan, EvalMode::kExact, 0, RankScheme::kStructureFirst, 0.0,
          nullptr);
      EXPECT_EQ(SortedNodes(got), expected)
          << "iter " << iter << " depth " << depth << "/"
          << schedule.size();
    }
  }
}

// 2. Serial vs parallel, full cross product: algorithm × rank scheme ×
// K × thread count. Everything observable about the result — the ranked
// answer list with scores, the relaxation metadata, and each execution
// counter — must match the threads=1 run exactly (not approximately:
// the merge is deterministic, so doubles compare with ==).
TEST(DifferentialTest, SerialMatchesParallelForAllAlgorithms) {
  constexpr Algorithm kAlgos[] = {Algorithm::kDpo, Algorithm::kSso,
                                  Algorithm::kHybrid};
  constexpr RankScheme kSchemes[] = {RankScheme::kStructureFirst,
                                     RankScheme::kKeywordFirst,
                                     RankScheme::kCombined};
  constexpr size_t kThreadCounts[] = {2, 8};
  constexpr size_t kKs[] = {1, 3, 10};

  Rng rng(424242);
  for (int iter = 0; iter < 80; ++iter) {
    Rig rig(&rng, 2, 60);
    TopKProcessor processor(rig.index.get(), rig.stats.get(), rig.ir.get());
    const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);
    const RankScheme scheme = kSchemes[iter % 3];

    for (Algorithm algo : kAlgos) {
      for (size_t k : kKs) {
        TopKOptions opts;
        opts.k = k;
        opts.scheme = scheme;
        opts.num_threads = 1;
        Result<TopKResult> serial = processor.Run(q, algo, opts);
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();

        for (size_t threads : kThreadCounts) {
          opts.num_threads = threads;
          Result<TopKResult> parallel = processor.Run(q, algo, opts);
          ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

          std::string label = std::string("iter ") + std::to_string(iter) +
                              " " + AlgorithmName(algo) + " " +
                              SchemeName(scheme) +
                              " k=" + std::to_string(k) +
                              " threads=" + std::to_string(threads);
          ASSERT_EQ(parallel->answers.size(), serial->answers.size())
              << label;
          for (size_t i = 0; i < serial->answers.size(); ++i) {
            EXPECT_EQ(parallel->answers[i].node, serial->answers[i].node)
                << label << " answer " << i;
            EXPECT_EQ(parallel->answers[i].score, serial->answers[i].score)
                << label << " answer " << i;
          }
          EXPECT_EQ(parallel->relaxations_used, serial->relaxations_used)
              << label;
          EXPECT_EQ(parallel->penalty_applied, serial->penalty_applied)
              << label;
          EXPECT_EQ(parallel->predicates_dropped,
                    serial->predicates_dropped)
              << label;
          EXPECT_EQ(CounterMap(parallel->counters),
                    CounterMap(serial->counters))
              << label;
        }
      }
    }
  }
}

// 3. Packed vs in-memory, full cross product: algorithm × rank scheme ×
// thread count. One FlexPath instance builds in memory; a second opens
// the packed file the first saved. The storage engine's contract
// (DESIGN.md §17) is byte-identity of everything result-shaped — ranked
// answers with scores, relaxation metadata, and every execution counter
// — because the packed read path serves exactly the structures the
// in-memory build holds, just lazily and from the mmap.
TEST(DifferentialTest, PackedMatchesInMemory) {
  constexpr Algorithm kAlgos[] = {Algorithm::kDpo, Algorithm::kSso,
                                  Algorithm::kHybrid};
  constexpr RankScheme kSchemes[] = {RankScheme::kStructureFirst,
                                     RankScheme::kKeywordFirst,
                                     RankScheme::kCombined};
  constexpr size_t kThreadCounts[] = {1, 4};

  Rng rng(20260809);
  FlexPath mem;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        mem.AddDocument(testing_util::RandomDocument(&rng, mem.tags(), 90))
            .ok());
  }
  const std::string path =
      ::testing::TempDir() + "/flexpath_diff_packed.fxp";
  ASSERT_TRUE(mem.SavePacked(path).ok());
  ASSERT_TRUE(mem.Build().ok());

  FlexPath packed;
  const Status open = packed.OpenPacked(path);
  ASSERT_TRUE(open.ok()) << open.ToString();

  for (int iter = 0; iter < 10; ++iter) {
    const Tpq q = testing_util::RandomTpq(&rng, mem.tags(), 5);
    const RankScheme scheme = kSchemes[iter % 3];
    for (Algorithm algo : kAlgos) {
      TopKOptions opts;
      opts.k = 10;
      opts.scheme = scheme;
      for (size_t threads : kThreadCounts) {
        opts.num_threads = threads;
        Result<TopKResult> a = mem.QueryTpq(q, opts, algo, "diff");
        Result<TopKResult> b = packed.QueryTpq(q, opts, algo, "diff");
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        EXPECT_EQ(Fingerprint(*b), Fingerprint(*a))
            << "iter " << iter << " " << AlgorithmName(algo) << " "
            << SchemeName(scheme) << " threads=" << threads;
      }
    }
  }
  std::remove(path.c_str());
}

// 4. Determinism under repetition: the same Hybrid top-K on an 8-thread
// pool, 20 times over — every repetition must produce a byte-identical
// fingerprint (ranked answers with scores, penalty_applied, counters).
// A scheduling-dependent merge would make this flake immediately.
TEST(DifferentialTest, HybridRepeatedRunsAreByteIdentical) {
  Rng rng(777);
  Rig rig(&rng, 8, 150);
  TopKProcessor processor(rig.index.get(), rig.stats.get(), rig.ir.get());
  const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);

  TopKOptions opts;
  opts.k = 25;
  opts.num_threads = 8;
  Result<TopKResult> first = processor.Run(q, Algorithm::kHybrid, opts);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const std::string reference = Fingerprint(*first);
  const double penalty = first->penalty_applied;

  for (int rep = 1; rep < 20; ++rep) {
    Result<TopKResult> again = processor.Run(q, Algorithm::kHybrid, opts);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(Fingerprint(*again), reference) << "repetition " << rep;
    EXPECT_EQ(again->penalty_applied, penalty) << "repetition " << rep;
  }
}

}  // namespace
}  // namespace flexpath
