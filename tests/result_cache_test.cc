// Tests for the sub-plan result cache (DESIGN.md §12): plan-step
// fingerprint stability, LRU eviction under a tiny byte budget,
// corpus-generation invalidation after a reload, warm-run work savings,
// and — the load-bearing guarantee — a cache-on/off differential across
// all three algorithms and thread counts proving answers, penalties and
// relaxation metadata are byte-identical at every cache tier.
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/lru_cache.h"
#include "common/random.h"
#include "exec/plan.h"
#include "exec/result_cache.h"
#include "exec/topk.h"
#include "ir/engine.h"
#include "query/tpq.h"
#include "query/xpath_parser.h"
#include "relax/penalty.h"
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

JoinPlan BuildPlan(const Tpq& q, const Rig& rig) {
  PenaltyModel pm(q, rig.stats.get(), rig.ir.get(), Weights{});
  Result<JoinPlan> plan = JoinPlan::Build(q, q, {}, pm, Weights{});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return std::move(plan).value();
}

// --- Fingerprints -----------------------------------------------------

TEST(ResultCacheTest, StepFingerprintsAreStableAcrossBuilds) {
  Rng rng(1001);
  for (int iter = 0; iter < 30; ++iter) {
    Rig rig(&rng, 2, 50);
    const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);
    const JoinPlan a = BuildPlan(q, rig);
    const JoinPlan b = BuildPlan(q, rig);
    ASSERT_EQ(a.steps().size(), b.steps().size());
    for (size_t s = 0; s < a.steps().size(); ++s) {
      EXPECT_EQ(a.step_fingerprint(s), b.step_fingerprint(s))
          << "iter " << iter << " step " << s;
    }
    EXPECT_EQ(a.plan_fingerprint(), b.plan_fingerprint()) << "iter " << iter;
  }
}

TEST(ResultCacheTest, DistinctQueriesGetDistinctFingerprints) {
  Rng rng(1002);
  Rig rig(&rng, 2, 50);
  // 40 random queries; count pairwise plan-fingerprint collisions among
  // structurally distinct plans. The fingerprint is 64-bit, so any
  // collision here means the chaining is broken, not bad luck.
  std::map<uint64_t, std::string> seen;
  for (int iter = 0; iter < 40; ++iter) {
    const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);
    const JoinPlan plan = BuildPlan(q, rig);
    const std::string desc =
        q.ToString(std::as_const(rig.corpus).tags());
    auto [it, inserted] = seen.emplace(plan.plan_fingerprint(), desc);
    if (!inserted) {
      EXPECT_EQ(it->second, desc) << "fingerprint collision";
    }
  }
}

TEST(ResultCacheTest, StepCacheKeyDependsOnEveryComponent) {
  const uint64_t base = StepCacheKey(1, 2, 0, 0, 0);
  EXPECT_NE(base, StepCacheKey(9, 2, 0, 0, 0));  // fingerprint
  EXPECT_NE(base, StepCacheKey(1, 3, 0, 0, 0));  // corpus generation
  EXPECT_NE(base, StepCacheKey(1, 2, 1, 0, 0));  // eval mode
  EXPECT_NE(base, StepCacheKey(1, 2, 0, 1, 0));  // rank scheme
  EXPECT_NE(base, StepCacheKey(1, 2, 0, 0, 5));  // pruning k
  EXPECT_EQ(base, StepCacheKey(1, 2, 0, 0, 0));  // deterministic
}

// --- LRU eviction -----------------------------------------------------

TEST(ResultCacheTest, LruEvictsLeastRecentlyUsedUnderTinyBudget) {
  LruByteCache<int, int> cache(/*budget_bytes=*/100);
  auto put = [&](int key, size_t bytes) {
    return cache.Put(key, std::make_shared<const int>(key), bytes);
  };
  EXPECT_TRUE(put(1, 40));
  EXPECT_TRUE(put(2, 40));
  EXPECT_NE(cache.Get(1), nullptr);  // refresh 1: now 2 is the LRU entry
  EXPECT_TRUE(put(3, 40));           // 120 > 100: evict 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.evictions(), 1u);

  // An entry larger than the whole budget is refused outright.
  EXPECT_FALSE(put(4, 101));
  EXPECT_EQ(cache.size(), 2u);

  // Shrinking the budget evicts immediately, oldest first.
  cache.SetBudget(40);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
}

TEST(ResultCacheTest, EvictionDoesNotInvalidateHandedOutEntries) {
  LruByteCache<int, std::vector<int>> cache(100);
  cache.Put(1, std::make_shared<const std::vector<int>>(3, 7), 60);
  std::shared_ptr<const std::vector<int>> held = cache.Get(1);
  cache.Put(2, std::make_shared<const std::vector<int>>(3, 9), 60);  // evicts 1
  EXPECT_EQ(cache.Get(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ((*held)[0], 7);  // still alive and intact
}

TEST(ResultCacheTest, ResultCacheStatsTrackHitsMissesEvictions) {
  ResultCache cache(/*budget_bytes=*/1000);
  EXPECT_EQ(cache.Get(1), nullptr);
  auto entry = std::make_shared<CachedStepResult>();
  entry->rows = TupleRows(1);
  entry->rows.Append(nullptr, NodeRef{0, 0}, 0, 0.0);
  entry->bytes = 600;
  cache.Put(1, entry);
  EXPECT_NE(cache.Get(1), nullptr);
  auto entry2 = std::make_shared<CachedStepResult>();
  entry2->bytes = 600;
  cache.Put(2, entry2);  // 1200 > 1000: evicts key 1
  EXPECT_EQ(cache.Get(1), nullptr);

  const ResultCache::Stats s = cache.GetStats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 600u);
  EXPECT_EQ(s.budget, 1000u);
}

// --- Warm runs and invalidation ---------------------------------------

Tpq Parse(const char* xpath, Corpus* corpus) {
  Result<Tpq> q = ParseXPath(xpath, corpus->tags(), {});
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

TEST(ResultCacheTest, WarmRunHitsAndSkipsWork) {
  ResultCache::Global().Clear();
  Rng rng(1003);
  Rig rig(&rng, 2, 80);
  TopKProcessor processor(rig.index.get(), rig.stats.get(), rig.ir.get());
  const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);

  TopKOptions opts;
  opts.k = 5;
  opts.num_threads = 1;
  opts.result_cache.tier = CacheTier::kShared;
  Result<TopKResult> cold = processor.Run(q, Algorithm::kDpo, opts);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  Result<TopKResult> warm = processor.Run(q, Algorithm::kDpo, opts);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  EXPECT_GT(warm->counters.cache_step_hits, 0u);
  // A cache hit skips the probes the cached steps would have done.
  EXPECT_LT(warm->counters.candidates_probed,
            cold->counters.candidates_probed);
  // Same answers regardless.
  ASSERT_EQ(warm->answers.size(), cold->answers.size());
  for (size_t i = 0; i < cold->answers.size(); ++i) {
    EXPECT_EQ(warm->answers[i].node, cold->answers[i].node);
    EXPECT_EQ(warm->answers[i].score, cold->answers[i].score);
  }
}

TEST(ResultCacheTest, CorpusReloadInvalidatesSharedEntries) {
  ResultCache::Global().Clear();
  const char* kXml =
      "<r><a><b/><c/></a><a><b/></a><a><b/><c/></a></r>";
  auto load = [&](Corpus* corpus) {
    Result<DocId> id = corpus->AddXml(kXml);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  };

  Corpus corpus1;
  load(&corpus1);
  ElementIndex index1(&corpus1);
  DocumentStats stats1(&corpus1);
  IrEngine ir1(&corpus1);
  TopKProcessor proc1(&index1, &stats1, &ir1);
  const Tpq q1 = Parse("//a[./b][./c]", &corpus1);

  TopKOptions opts;
  opts.k = 3;
  opts.num_threads = 1;
  opts.result_cache.tier = CacheTier::kShared;
  Result<TopKResult> first = proc1.Run(q1, Algorithm::kDpo, opts);
  ASSERT_TRUE(first.ok());
  Result<TopKResult> repeat = proc1.Run(q1, Algorithm::kDpo, opts);
  ASSERT_TRUE(repeat.ok());
  EXPECT_GT(repeat->counters.cache_step_hits, 0u);

  // An identical corpus loaded fresh has a new generation, so nothing
  // cached for the old one can be served — even though the content (and
  // hence every step fingerprint) is the same.
  Corpus corpus2;
  load(&corpus2);
  EXPECT_NE(corpus1.generation(), corpus2.generation());
  ElementIndex index2(&corpus2);
  DocumentStats stats2(&corpus2);
  IrEngine ir2(&corpus2);
  TopKProcessor proc2(&index2, &stats2, &ir2);
  const Tpq q2 = Parse("//a[./b][./c]", &corpus2);
  const uint64_t shared_hits_before = ResultCache::Global().GetStats().hits;
  Result<TopKResult> fresh = proc2.Run(q2, Algorithm::kDpo, opts);
  ASSERT_TRUE(fresh.ok());
  // No hit may come from the shared tier — everything in it belongs to
  // the dead corpus1 generation. (cache_step_hits can still be nonzero:
  // DPO's run-local prefix reuse works fine under the new generation.)
  EXPECT_EQ(ResultCache::Global().GetStats().hits, shared_hits_before);
  // It still answers correctly, caching under its own generation.
  ASSERT_EQ(fresh->answers.size(), first->answers.size());
  for (size_t i = 0; i < first->answers.size(); ++i) {
    EXPECT_EQ(fresh->answers[i].node, first->answers[i].node);
  }
}

// Incremental DPO: with answers from round 0 excluded, the relaxed
// round's tuples for already-answered nodes are dropped at bind time —
// observable in tuples_excluded — without changing any answer.
TEST(ResultCacheTest, IncrementalDpoExcludesAnsweredNodes) {
  Corpus corpus;
  ASSERT_TRUE(
      corpus.AddXml("<r><a><b/><c/></a><a><b/></a><a><b/><c/></a></r>")
          .ok());
  ElementIndex index(&corpus);
  DocumentStats stats(&corpus);
  IrEngine ir(&corpus);
  TopKProcessor processor(&index, &stats, &ir);
  // Round 0 answers the two <a> with both children; filling k=3 needs a
  // relaxed round, where those two must be excluded.
  const Tpq q = Parse("//a[./b][./c]", &corpus);

  TopKOptions off;
  off.k = 3;
  off.num_threads = 1;
  Result<TopKResult> baseline = processor.Run(q, Algorithm::kDpo, off);
  ASSERT_TRUE(baseline.ok());
  ASSERT_EQ(baseline->answers.size(), 3u);
  ASSERT_GT(baseline->relaxations_used, 0u);

  TopKOptions on = off;
  on.result_cache.tier = CacheTier::kRun;
  Result<TopKResult> incremental = processor.Run(q, Algorithm::kDpo, on);
  ASSERT_TRUE(incremental.ok());
  EXPECT_GT(incremental->counters.tuples_excluded, 0u);
  ASSERT_EQ(incremental->answers.size(), baseline->answers.size());
  for (size_t i = 0; i < baseline->answers.size(); ++i) {
    EXPECT_EQ(incremental->answers[i].node, baseline->answers[i].node);
    EXPECT_EQ(incremental->answers[i].score, baseline->answers[i].score);
  }
  EXPECT_EQ(incremental->penalty_applied, baseline->penalty_applied);
  EXPECT_EQ(incremental->predicates_dropped, baseline->predicates_dropped);
}

// --- The differential: caching never changes results ------------------

std::string AnswerFingerprint(const TopKResult& r) {
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
  s += ",pruned=" + std::to_string(r.rounds_pruned);
  return s;
}

TEST(ResultCacheTest, CacheOnOffDifferentialAcrossAlgorithmsAndThreads) {
  constexpr Algorithm kAlgos[] = {Algorithm::kDpo, Algorithm::kSso,
                                  Algorithm::kHybrid};
  constexpr CacheTier kTiers[] = {CacheTier::kRun, CacheTier::kShared};
  constexpr size_t kThreadCounts[] = {1, 4};

  Rng rng(1004);
  for (int iter = 0; iter < 40; ++iter) {
    Rig rig(&rng, 2, 60);
    TopKProcessor processor(rig.index.get(), rig.stats.get(), rig.ir.get());
    const Tpq q = testing_util::RandomTpq(&rng, rig.corpus.tags(), 5);
    const RankScheme scheme =
        iter % 3 == 0   ? RankScheme::kStructureFirst
        : iter % 3 == 1 ? RankScheme::kKeywordFirst
                        : RankScheme::kCombined;

    for (Algorithm algo : kAlgos) {
      for (size_t threads : kThreadCounts) {
        TopKOptions opts;
        opts.k = 5;
        opts.scheme = scheme;
        opts.num_threads = threads;
        Result<TopKResult> off = processor.Run(q, algo, opts);
        ASSERT_TRUE(off.ok()) << off.status().ToString();

        for (CacheTier tier : kTiers) {
          opts.result_cache.tier = tier;
          // Twice per tier: the cold pass (populating) and the warm pass
          // (serving hits) must both match the uncached run exactly.
          for (int pass = 0; pass < 2; ++pass) {
            Result<TopKResult> on = processor.Run(q, algo, opts);
            ASSERT_TRUE(on.ok()) << on.status().ToString();
            EXPECT_EQ(AnswerFingerprint(*on), AnswerFingerprint(*off))
                << "iter " << iter << " algo " << AlgorithmName(algo)
                << " threads " << threads << " tier "
                << CacheTierName(tier) << " pass " << pass;
          }
        }
        opts.result_cache.tier = CacheTier::kOff;
      }
    }
  }
}

}  // namespace
}  // namespace flexpath
