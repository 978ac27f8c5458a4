// Golden pins for the join pipeline: answer digests, relaxation metadata
// and every ExecCounters field for a fixed matrix of runs over seeded
// XMark documents. The values were recorded before the evaluator's
// tuple representation changed and are hard-coded: a rewrite of the
// pipeline's data structures must reproduce them exactly, so any drift
// in answers, scores (bit patterns), rank order, prune decisions or
// work accounting fails here with the run's name.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "core/flexpath.h"
#include "exec/topk.h"
#include "xmark/generator.h"

namespace flexpath {
namespace {

// Everything result-shaped about a run, in one line: a digest over the
// ranked answers (node ids and the exact bit patterns of both score
// components, in rank order) and the deepest relaxation's penalty, then
// the relaxation metadata and every counter by name.
std::string Pin(const TopKResult& r) {
  uint64_t h = 0;
  for (const RankedAnswer& a : r.answers) {
    h = HashCombine(h, static_cast<uint64_t>(a.node.doc));
    h = HashCombine(h, static_cast<uint64_t>(a.node.node));
    h = HashCombine(h, a.score.ss);
    h = HashCombine(h, a.score.ks);
  }
  h = HashCombine(h, r.penalty_applied);
  char digest[17];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(h));
  std::string s = "answers=" + std::to_string(r.answers.size());
  s += " digest=";
  s += digest;
  s += " relaxations=" + std::to_string(r.relaxations_used);
  s += " dropped=" + std::to_string(r.predicates_dropped);
  r.counters.ForEach([&](const char* name, uint64_t value) {
    s += ' ';
    s += name;
    s += '=';
    s += std::to_string(value);
  });
  return s;
}

struct PinCase {
  PinCase(const char* name_, const char* xpath_, Algorithm algo_, size_t k_,
          const char* expect_, size_t threads_ = 1,
          RankScheme scheme_ = RankScheme::kStructureFirst)
      : name(name_), xpath(xpath_), algo(algo_), k(k_), expect(expect_),
        threads(threads_), scheme(scheme_) {}

  const char* name;
  const char* xpath;
  Algorithm algo;
  size_t k;
  const char* expect;
  size_t threads;
  RankScheme scheme;
};

TopKOptions OptionsFor(const PinCase& c) {
  TopKOptions opts;
  opts.k = c.k;
  opts.scheme = c.scheme;
  opts.num_threads = c.threads;
  return opts;
}

void RunPins(FlexPath* fp, const std::vector<PinCase>& cases) {
  for (const PinCase& c : cases) {
    SCOPED_TRACE(c.name);
    Result<Tpq> q = fp->Parse(c.xpath);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    Result<TopKResult> r = fp->QueryTpq(*q, OptionsFor(c), c.algo);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(Pin(*r), c.expect) << c.name;
  }
}

// The paper's Section 6 queries (bench/bench_util.h).
constexpr const char* kQ1 = "//item[./description/parlist]";
constexpr const char* kQ2 =
    "//item[./description/parlist and ./mailbox/mail/text]";
constexpr const char* kQ3 =
    "//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
    "and ./keyword and ./emph] and ./name and ./incategory]";
constexpr const char* kFt =
    "//item[./description/parlist and ./mailbox/mail/text[.contains("
    "\"gold\" or \"silver\")]]";

constexpr Algorithm kDpo = Algorithm::kDpo;
constexpr Algorithm kSso = Algorithm::kSso;
constexpr Algorithm kHybrid = Algorithm::kHybrid;

// Q1-Q3 x DPO/SSO/Hybrid x k in {10, 50, 500} on one 1 MB XMark
// document (seed 42), serial; plus 4-thread and full-text runs
// of the same document.
TEST(EvaluatorPinTest, XMarkOneMegabyte) {
  FlexPath fp;
  XMarkOptions xo;
  xo.target_bytes = 1 << 20;
  xo.seed = 42;
  Result<Document> doc = GenerateXMark(xo, fp.tags());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(fp.AddDocument(std::move(doc).value()).ok());
  ASSERT_TRUE(fp.Build().ok());

  const std::vector<PinCase> cases = {
      {"Q1/DPO/10", kQ1, kDpo, 10,
       "answers=10 digest=806be45d8d6191a0 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2547 tuples_created=2032 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q1/DPO/50", kQ1, kDpo, 50,
       "answers=50 digest=b3628bef6ca0fca4 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2547 tuples_created=2032 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q1/DPO/500", kQ1, kDpo, 500,
       "answers=500 digest=ac506e08c259d773 relaxations=3 dropped=4 "
       "plan_passes=4 candidates_probed=9529 tuples_created=9958 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q1/SSO/10", kQ1, kSso, 10,
       "answers=10 digest=806be45d8d6191a0 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2547 tuples_created=2032 "
       "tuples_pruned=0 score_sorts=4 score_sorted_items=3776 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q1/SSO/50", kQ1, kSso, 50,
       "answers=50 digest=b3628bef6ca0fca4 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2547 tuples_created=2032 "
       "tuples_pruned=0 score_sorts=4 score_sorted_items=3776 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q1/SSO/500", kQ1, kSso, 500,
       "answers=500 digest=ac506e08c259d773 relaxations=3 dropped=4 "
       "plan_passes=1 candidates_probed=2547 tuples_created=3202 "
       "tuples_pruned=0 score_sorts=4 score_sorted_items=3776 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q1/Hybrid/10", kQ1, kHybrid, 10,
       "answers=10 digest=806be45d8d6191a0 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2547 tuples_created=2032 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=1 rounds_pruned_static=0"},
      {"Q1/Hybrid/50", kQ1, kHybrid, 50,
       "answers=50 digest=b3628bef6ca0fca4 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2547 tuples_created=2032 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=1 rounds_pruned_static=0"},
      {"Q1/Hybrid/500", kQ1, kHybrid, 500,
       "answers=500 digest=ac506e08c259d773 relaxations=3 dropped=4 "
       "plan_passes=1 candidates_probed=2547 tuples_created=3202 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=1 rounds_pruned_static=0"},
      {"Q2/DPO/10", kQ2, kDpo, 10,
       "answers=10 digest=2545f04817e5da62 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2901 tuples_created=2375 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q2/DPO/50", kQ2, kDpo, 50,
       "answers=50 digest=2efed78c2c87dfc9 relaxations=1 dropped=1 "
       "plan_passes=2 candidates_probed=6157 tuples_created=5596 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q2/DPO/500", kQ2, kDpo, 500,
       "answers=500 digest=b939a471e031f2e3 relaxations=6 dropped=7 "
       "plan_passes=7 candidates_probed=27909 tuples_created=30949 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q2/SSO/10", kQ2, kSso, 10,
       "answers=10 digest=2545f04817e5da62 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2901 tuples_created=2375 "
       "tuples_pruned=0 score_sorts=10 score_sorted_items=4646 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q2/SSO/50", kQ2, kSso, 50,
       "answers=50 digest=2efed78c2c87dfc9 relaxations=1 dropped=1 "
       "plan_passes=2 candidates_probed=6302 tuples_created=6111 "
       "tuples_pruned=145 score_sorts=10 score_sorted_items=4936 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q2/SSO/500", kQ2, kSso, 500,
       "answers=500 digest=8be4a74f2403f2db relaxations=6 dropped=7 "
       "plan_passes=1 candidates_probed=7340 tuples_created=7995 "
       "tuples_pruned=0 score_sorts=10 score_sorted_items=9462 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q2/Hybrid/10", kQ2, kHybrid, 10,
       "answers=10 digest=2545f04817e5da62 relaxations=0 dropped=0 "
       "plan_passes=1 candidates_probed=2901 tuples_created=2375 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=1 rounds_pruned_static=0"},
      {"Q2/Hybrid/50", kQ2, kHybrid, 50,
       "answers=50 digest=2efed78c2c87dfc9 relaxations=1 dropped=1 "
       "plan_passes=2 candidates_probed=6157 tuples_created=6111 "
       "tuples_pruned=145 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=2 rounds_pruned_static=0"},
      {"Q2/Hybrid/500", kQ2, kHybrid, 500,
       "answers=500 digest=8be4a74f2403f2db relaxations=6 dropped=7 "
       "plan_passes=1 candidates_probed=7340 tuples_created=7995 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=3 rounds_pruned_static=0"},
      {"Q3/DPO/10", kQ3, kDpo, 10,
       "answers=10 digest=8e9007e82ebf8f95 relaxations=1 dropped=1 "
       "plan_passes=2 candidates_probed=10169 tuples_created=7853 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q3/DPO/50", kQ3, kDpo, 50,
       "answers=50 digest=ccd3a7cf3155d5cb relaxations=7 dropped=10 "
       "plan_passes=8 candidates_probed=42105 tuples_created=42946 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q3/DPO/500", kQ3, kDpo, 500,
       "answers=500 digest=c6928f71242e4c6c relaxations=22 dropped=36 "
       "plan_passes=23 candidates_probed=163856 tuples_created=231235 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q3/SSO/10", kQ3, kSso, 10,
       "answers=10 digest=028659c43dab087e relaxations=6 dropped=9 "
       "plan_passes=2 candidates_probed=20023 tuples_created=18085 "
       "tuples_pruned=4407 score_sorts=18 score_sorted_items=7756 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q3/SSO/50", kQ3, kSso, 50,
       "answers=50 digest=bfb37eea6410d5c5 relaxations=9 dropped=18 "
       "plan_passes=2 candidates_probed=28545 tuples_created=29295 "
       "tuples_pruned=1870 score_sorts=16 score_sorted_items=11266 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q3/SSO/500", kQ3, kSso, 500,
       "answers=500 digest=ee42f6f7e20c195d relaxations=24 dropped=38 "
       "plan_passes=2 candidates_probed=97518 tuples_created=98883 "
       "tuples_pruned=3457 score_sorts=22 score_sorted_items=35744 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"Q3/Hybrid/10", kQ3, kHybrid, 10,
       "answers=10 digest=028659c43dab087e relaxations=6 dropped=9 "
       "plan_passes=2 candidates_probed=19878 tuples_created=18085 "
       "tuples_pruned=4407 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=3 rounds_pruned_static=0"},
      {"Q3/Hybrid/50", kQ3, kHybrid, 50,
       "answers=50 digest=bfb37eea6410d5c5 relaxations=9 dropped=18 "
       "plan_passes=2 candidates_probed=27456 tuples_created=29295 "
       "tuples_pruned=2194 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=12 rounds_pruned_static=0"},
      {"Q3/Hybrid/500", kQ3, kHybrid, 500,
       "answers=500 digest=ee42f6f7e20c195d relaxations=24 dropped=38 "
       "plan_passes=2 candidates_probed=97161 tuples_created=98883 "
       "tuples_pruned=3395 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=176 rounds_pruned_static=0"},
      // The chunked-parallel extend and DPO's speculative waves.
      {"Q3/DPO/50/threads=4", kQ3, kDpo, 50,
       "answers=50 digest=ccd3a7cf3155d5cb relaxations=7 dropped=10 "
       "plan_passes=8 candidates_probed=42105 tuples_created=42946 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0", 4},
      {"Q3/SSO/50/threads=4", kQ3, kSso, 50,
       "answers=50 digest=bfb37eea6410d5c5 relaxations=9 dropped=18 "
       "plan_passes=2 candidates_probed=28545 tuples_created=29295 "
       "tuples_pruned=1870 score_sorts=16 score_sorted_items=11266 "
       "buckets_peak=0 rounds_pruned_static=0", 4},
      {"Q3/Hybrid/500/threads=4", kQ3, kHybrid, 500,
       "answers=500 digest=ee42f6f7e20c195d relaxations=24 dropped=38 "
       "plan_passes=2 candidates_probed=97161 tuples_created=98883 "
       "tuples_pruned=3395 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=176 rounds_pruned_static=0", 4},
      {"Q3/SSO/500/threads=4", kQ3, kSso, 500,
       "answers=500 digest=ee42f6f7e20c195d relaxations=24 dropped=38 "
       "plan_passes=2 candidates_probed=97518 tuples_created=98883 "
       "tuples_pruned=3457 score_sorts=22 score_sorted_items=35744 "
       "buckets_peak=0 rounds_pruned_static=0", 4},
      // Contains predicates and keyword-scoring chains.
      {"Ft/DPO/50/combined", kFt, kDpo, 50,
       "answers=50 digest=c5b6c90818cd6153 relaxations=15 dropped=22 "
       "plan_passes=16 candidates_probed=45691 tuples_created=58910 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0", 1,
       RankScheme::kCombined},
      {"Ft/SSO/50/combined", kFt, kSso, 50,
       "answers=50 digest=8b3bd886780f2a78 relaxations=15 dropped=22 "
       "plan_passes=1 candidates_probed=1633 tuples_created=825 "
       "tuples_pruned=4 score_sorts=10 score_sorted_items=794 "
       "buckets_peak=0 rounds_pruned_static=0", 1,
       RankScheme::kCombined},
      {"Ft/Hybrid/50/keyword-first", kFt, kHybrid, 50,
       "answers=50 digest=1e54a65cd8dd046b relaxations=15 dropped=22 "
       "plan_passes=1 candidates_probed=1633 tuples_created=829 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=11 rounds_pruned_static=0", 1,
       RankScheme::kKeywordFirst},
  };
  RunPins(&fp, cases);
}

// A packed multi-document collection (eight XMark documents, seeds 1-8),
// queried through a fresh OpenPacked session as the packed workloads do.
TEST(EvaluatorPinTest, PackedCollection) {
  const std::string path = ::testing::TempDir() + "/evaluator_pin.fxp";
  {
    FlexPath writer;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      XMarkOptions xo;
      xo.target_bytes = 96 << 10;
      xo.seed = seed;
      Result<Document> doc = GenerateXMark(xo, writer.tags());
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      ASSERT_TRUE(writer.AddDocument(std::move(doc).value()).ok());
    }
    ASSERT_TRUE(writer.SavePacked(path).ok());
  }
  FlexPath session;
  ASSERT_TRUE(session.OpenPacked(path).ok());
  const std::vector<PinCase> cases = {
      {"packed/Q2/DPO/50", kQ2, kDpo, 50,
       "answers=50 digest=ef33e97c2d8ef940 relaxations=1 dropped=1 "
       "plan_passes=2 candidates_probed=4731 tuples_created=4307 "
       "tuples_pruned=0 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"packed/Q3/SSO/50", kQ3, kSso, 50,
       "answers=50 digest=e8d10d31d22e29b6 relaxations=9 dropped=18 "
       "plan_passes=2 candidates_probed=21369 tuples_created=22055 "
       "tuples_pruned=1414 score_sorts=14 score_sorted_items=8518 "
       "buckets_peak=0 rounds_pruned_static=0"},
      {"packed/Q3/Hybrid/500", kQ3, kHybrid, 500,
       "answers=500 digest=b2bfc3ead0d00671 relaxations=25 dropped=40 "
       "plan_passes=2 candidates_probed=68904 tuples_created=71704 "
       "tuples_pruned=1857 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=168 rounds_pruned_static=0"},
      {"packed/Q3/Hybrid/50/threads=4", kQ3, kHybrid, 50,
       "answers=50 digest=e8d10d31d22e29b6 relaxations=9 dropped=18 "
       "plan_passes=2 candidates_probed=20549 tuples_created=22055 "
       "tuples_pruned=1647 score_sorts=0 score_sorted_items=0 "
       "buckets_peak=12 rounds_pruned_static=0", 4},
  };
  RunPins(&session, cases);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flexpath
