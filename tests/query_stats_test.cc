#include "obs/query_stats.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/flexpath.h"
#include "exec/topk.h"
#include "ir/ft_expr.h"
#include "query/tpq.h"
#include "xml/tag_dict.h"

namespace flexpath {
namespace {

// --- Fingerprinting ------------------------------------------------------

TEST(FingerprintTest, HexIsSixteenLowercaseDigits) {
  EXPECT_EQ(FingerprintHex(0), "0000000000000000");
  EXPECT_EQ(FingerprintHex(0xABCDEF0123456789ull), "abcdef0123456789");
}

TEST(FingerprintTest, ChildOrderDoesNotMatter) {
  TagDict dict;
  const TagId article = dict.Intern("article");
  const TagId section = dict.Intern("section");
  const TagId paragraph = dict.Intern("paragraph");

  Tpq a;
  VarId ra = a.AddRoot(article);
  a.AddChild(ra, Axis::kChild, section);
  a.AddChild(ra, Axis::kDescendant, paragraph);

  Tpq b;
  VarId rb = b.AddRoot(article);
  b.AddChild(rb, Axis::kDescendant, paragraph);
  b.AddChild(rb, Axis::kChild, section);

  EXPECT_EQ(QueryShapeKey(a, dict), QueryShapeKey(b, dict));
  EXPECT_EQ(FingerprintTpq(a, dict), FingerprintTpq(b, dict));
}

TEST(FingerprintTest, VariableNumberingDoesNotMatter) {
  TagDict dict;
  const TagId article = dict.Intern("article");
  const TagId section = dict.Intern("section");

  Tpq a;
  a.AddRootVar(1, article);
  a.AddChildVar(2, 1, Axis::kChild, section);
  a.SetDistinguished(2);

  Tpq b;
  b.AddRootVar(7, article);
  b.AddChildVar(3, 7, Axis::kChild, section);
  b.SetDistinguished(3);

  EXPECT_EQ(FingerprintTpq(a, dict), FingerprintTpq(b, dict));
}

TEST(FingerprintTest, AxisChangesTheFingerprint) {
  TagDict dict;
  const TagId article = dict.Intern("article");
  const TagId section = dict.Intern("section");

  Tpq pc;
  pc.AddChild(pc.AddRoot(article), Axis::kChild, section);
  Tpq ad;
  ad.AddChild(ad.AddRoot(article), Axis::kDescendant, section);

  EXPECT_NE(FingerprintTpq(pc, dict), FingerprintTpq(ad, dict));
}

TEST(FingerprintTest, ContainsTermChangesTheFingerprint) {
  TagDict dict;
  const TagId article = dict.Intern("article");

  Tpq a;
  VarId ra = a.AddRoot(article);
  a.AddContains(ra, FtExpr::Term("xml"));
  Tpq b;
  VarId rb = b.AddRoot(article);
  b.AddContains(rb, FtExpr::Term("sgml"));
  Tpq none;
  none.AddRoot(article);

  EXPECT_NE(FingerprintTpq(a, dict), FingerprintTpq(b, dict));
  EXPECT_NE(FingerprintTpq(a, dict), FingerprintTpq(none, dict));
}

TEST(FingerprintTest, ContainsOrderDoesNotMatter) {
  TagDict dict;
  const TagId article = dict.Intern("article");

  Tpq a;
  VarId ra = a.AddRoot(article);
  a.AddContains(ra, FtExpr::Term("xml"));
  a.AddContains(ra, FtExpr::Term("streaming"));
  Tpq b;
  VarId rb = b.AddRoot(article);
  b.AddContains(rb, FtExpr::Term("streaming"));
  b.AddContains(rb, FtExpr::Term("xml"));

  EXPECT_EQ(FingerprintTpq(a, dict), FingerprintTpq(b, dict));
}

TEST(FingerprintTest, DistinguishedNodeChangesTheFingerprint) {
  TagDict dict;
  const TagId article = dict.Intern("article");
  const TagId section = dict.Intern("section");

  Tpq root_answer;
  VarId r1 = root_answer.AddRoot(article);
  root_answer.AddChild(r1, Axis::kChild, section);
  root_answer.SetDistinguished(r1);

  Tpq child_answer;
  VarId r2 = child_answer.AddRoot(article);
  VarId c2 = child_answer.AddChild(r2, Axis::kChild, section);
  child_answer.SetDistinguished(c2);

  EXPECT_NE(FingerprintTpq(root_answer, dict),
            FingerprintTpq(child_answer, dict));
}

TEST(FingerprintTest, SurvivesTagIdReassignment) {
  // Same names interned in different orders get different TagIds; the
  // fingerprint must not notice because it renders names, not ids.
  TagDict d1;
  const TagId article1 = d1.Intern("article");
  const TagId section1 = d1.Intern("section");
  TagDict d2;
  const TagId section2 = d2.Intern("section");
  const TagId article2 = d2.Intern("article");
  ASSERT_NE(article1, article2);

  Tpq a;
  a.AddChild(a.AddRoot(article1), Axis::kChild, section1);
  Tpq b;
  b.AddChild(b.AddRoot(article2), Axis::kChild, section2);

  EXPECT_EQ(FingerprintTpq(a, d1), FingerprintTpq(b, d2));
}

// --- QueryStatsStore -----------------------------------------------------

QueryExecution MakeExec(uint64_t fingerprint, double latency_ms,
                        const std::string& query = "//a") {
  QueryExecution e;
  e.fingerprint = fingerprint;
  e.query = query;
  e.algorithm = "DPO";
  e.scheme = "structure_first";
  e.k = 10;
  e.latency_ms = latency_ms;
  e.relaxations = 1;
  e.predicates_dropped = 2;
  e.penalty = 0.25;
  e.answers = 5;
  return e;
}

TEST(QueryStatsStoreTest, AggregatesUnderOneFingerprint) {
  QueryStatsStore store;
  store.Record(MakeExec(42, 1.0));
  store.Record(MakeExec(42, 3.0));

  std::vector<ShapeStatsSnapshot> shapes = store.Shapes();
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].fingerprint, 42u);
  EXPECT_EQ(shapes[0].executions, 2u);
  EXPECT_EQ(shapes[0].errors, 0u);
  EXPECT_EQ(shapes[0].latency_ms.count, 2u);
  EXPECT_DOUBLE_EQ(shapes[0].latency_ms.sum, 4.0);
  EXPECT_DOUBLE_EQ(shapes[0].MeanRelaxations(), 1.0);
  EXPECT_DOUBLE_EQ(shapes[0].MeanPredicatesDropped(), 2.0);
  EXPECT_DOUBLE_EQ(shapes[0].MeanPenalty(), 0.25);
  EXPECT_DOUBLE_EQ(shapes[0].MeanAnswers(), 5.0);
  EXPECT_EQ(shapes[0].example_query, "//a");
}

TEST(QueryStatsStoreTest, ShapesSortedByExecutionCount) {
  QueryStatsStore store;
  store.Record(MakeExec(1, 1.0));
  store.Record(MakeExec(2, 1.0));
  store.Record(MakeExec(2, 1.0));

  std::vector<ShapeStatsSnapshot> shapes = store.Shapes();
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0].fingerprint, 2u);
  EXPECT_EQ(shapes[1].fingerprint, 1u);
}

TEST(QueryStatsStoreTest, ErrorsAreCountedSeparately) {
  QueryStatsStore store;
  QueryExecution bad = MakeExec(7, 0.5);
  bad.error = true;
  store.Record(bad);
  store.Record(MakeExec(7, 0.5));

  std::vector<ShapeStatsSnapshot> shapes = store.Shapes();
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].executions, 2u);
  EXPECT_EQ(shapes[0].errors, 1u);
}

TEST(QueryStatsStoreTest, RecentRingEvictsOldestAndKeepsNewest) {
  QueryStatsOptions opts;
  opts.ring_capacity = 4;
  QueryStatsStore store(opts);
  for (int i = 0; i < 10; ++i) {
    store.Record(MakeExec(static_cast<uint64_t>(i), static_cast<double>(i)));
  }
  std::vector<QueryExecution> recent = store.Recent();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_EQ(recent.front().fingerprint, 6u);  // Oldest surviving entry.
  EXPECT_EQ(recent.back().fingerprint, 9u);   // Newest kept.
}

TEST(QueryStatsStoreTest, ShapeMapEvictsLeastRecentlyTouched) {
  QueryStatsOptions opts;
  opts.max_shapes = 2;
  QueryStatsStore store(opts);
  store.Record(MakeExec(1, 1.0));
  store.Record(MakeExec(2, 1.0));
  store.Record(MakeExec(1, 1.0));  // Touch 1 so 2 is the LRU shape.
  store.Record(MakeExec(3, 1.0));  // Evicts 2.

  EXPECT_EQ(store.shape_count(), 2u);
  std::vector<ShapeStatsSnapshot> shapes = store.Shapes();
  ASSERT_EQ(shapes.size(), 2u);
  EXPECT_EQ(shapes[0].fingerprint, 1u);
  EXPECT_EQ(shapes[1].fingerprint, 3u);
}

TEST(QueryStatsStoreTest, SlowLogIsBoundedAndOldestFirst) {
  QueryStatsOptions opts;
  opts.slowlog_capacity = 2;
  QueryStatsStore store(opts);
  for (int i = 0; i < 5; ++i) {
    store.RecordSlow(MakeExec(static_cast<uint64_t>(i), 10.0), 5.0, nullptr);
  }
  std::vector<SlowQueryEntry> slow = store.SlowLog();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].execution.fingerprint, 3u);
  EXPECT_EQ(slow[1].execution.fingerprint, 4u);
  EXPECT_DOUBLE_EQ(slow[0].threshold_ms, 5.0);
  EXPECT_EQ(slow[0].trace, nullptr);
}

TEST(QueryStatsStoreTest, ResetClearsEverything) {
  QueryStatsStore store;
  store.Record(MakeExec(1, 1.0));
  store.RecordSlow(MakeExec(1, 1.0), 0.0, nullptr);
  store.Reset();
  EXPECT_EQ(store.shape_count(), 0u);
  EXPECT_TRUE(store.Shapes().empty());
  EXPECT_TRUE(store.Recent().empty());
  EXPECT_TRUE(store.SlowLog().empty());
}

TEST(QueryStatsStoreTest, ToJsonRendersShapesRecentAndSlowLog) {
  QueryStatsStore store;
  store.Record(MakeExec(0xABCDull, 1.5, "//article[./\"quoted\"]"));
  store.RecordSlow(MakeExec(0xABCDull, 1.5), 0.0, nullptr);
  const std::string json = store.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"shapes\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"recent\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow_log\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"fingerprint\":\"000000000000abcd\""),
            std::string::npos)
      << json;
  // The quote inside the query text must arrive escaped.
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos) << json;
}

TEST(QueryStatsStoreTest, CpuCountersAndBudgetAggregatePerShape) {
  QueryStatsStore store;
  QueryExecution a = MakeExec(9, 1.0);
  a.cpu_ms = 2.0;
  a.counters.tuples_created = 10;
  QueryExecution b = MakeExec(9, 1.0);
  b.cpu_ms = 4.0;
  b.counters.tuples_created = 30;
  b.budget_exhausted = true;
  store.Record(a);
  store.Record(b);

  std::vector<ShapeStatsSnapshot> shapes = store.Shapes();
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_DOUBLE_EQ(shapes[0].MeanCpuMs(), 3.0);
  EXPECT_DOUBLE_EQ(shapes[0].MeanTuplesCreated(), 20.0);
  EXPECT_EQ(shapes[0].budget_exhausted, 1u);

  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"cpu_ms_mean\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tuples_created_mean\":20"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"budget_exhausted\":1"), std::string::npos) << json;
  // The recent ring carries each execution's cpu_ms and counters.
  EXPECT_NE(json.find("\"cpu_ms\":4,\"counters\":{\"plan_passes\":0,"),
            std::string::npos)
      << json;
}

TEST(QueryStatsStoreTest, SetOptionsTrimsExistingEntriesToNewCapacities) {
  QueryStatsStore store;  // Default capacities: plenty of room.
  for (int i = 0; i < 6; ++i) {
    store.Record(MakeExec(static_cast<uint64_t>(i), 1.0));
    store.RecordSlow(MakeExec(static_cast<uint64_t>(i), 10.0), 5.0,
                     nullptr);
  }
  ASSERT_EQ(store.shape_count(), 6u);

  QueryStatsOptions shrunk;
  shrunk.max_shapes = 2;
  shrunk.ring_capacity = 3;
  shrunk.slowlog_capacity = 1;
  store.SetOptions(shrunk);

  EXPECT_EQ(store.options().max_shapes, 2u);
  // Shrinking retroactively evicts: oldest-touched shapes, oldest ring
  // and slow-log entries go first, newest survive.
  EXPECT_EQ(store.shape_count(), 2u);
  std::vector<QueryExecution> recent = store.Recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent.front().fingerprint, 3u);
  EXPECT_EQ(recent.back().fingerprint, 5u);
  std::vector<SlowQueryEntry> slow = store.SlowLog();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].execution.fingerprint, 5u);
}

TEST(QueryStatsStoreTest, EvictionsAreCountedPerStructure) {
  QueryStatsOptions opts;
  opts.max_shapes = 2;
  opts.ring_capacity = 2;
  opts.slowlog_capacity = 2;
  QueryStatsStore store(opts);
  for (int i = 0; i < 5; ++i) {
    store.Record(MakeExec(static_cast<uint64_t>(i), 1.0));
    store.RecordSlow(MakeExec(static_cast<uint64_t>(i), 10.0), 5.0,
                     nullptr);
  }

  const QueryStatsEvictions ev = store.Evictions();
  EXPECT_EQ(ev.shapes, 3u);   // 5 distinct shapes into 2 slots.
  EXPECT_EQ(ev.ring, 3u);     // 5 executions into a ring of 2.
  EXPECT_EQ(ev.slowlog, 3u);  // Same for the slow log.

  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"evictions\":{\"shapes\":3,\"ring\":3,"
                      "\"slowlog\":3}"),
            std::string::npos)
      << json;

  store.Reset();
  const QueryStatsEvictions cleared = store.Evictions();
  EXPECT_EQ(cleared.shapes, 0u);
  EXPECT_EQ(cleared.ring, 0u);
  EXPECT_EQ(cleared.slowlog, 0u);
}

// --- End-to-end through the FlexPath facade ------------------------------

class QueryStatsIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(fp_.AddDocumentXml("<article><section><paragraph>xml "
                                   "streaming evaluation</paragraph>"
                                   "</section></article>")
                    .ok());
    ASSERT_TRUE(fp_.AddDocumentXml("<article><section><paragraph>query "
                                   "relaxation</paragraph></section>"
                                   "<abstract>xml</abstract></article>")
                    .ok());
    ASSERT_TRUE(fp_.Build().ok());
  }

  FlexPath fp_;
};

TEST_F(QueryStatsIntegrationTest,
       SameShapeTwiceAggregatesUnderOneFingerprintAndFiresSlowLog) {
  Result<Tpq> q = fp_.Parse("//article[./section/paragraph]");
  ASSERT_TRUE(q.ok());

  TopKOptions opts;
  opts.k = 5;
  opts.slow_query_ms = 0.0;  // Every query is "slow": forces log entries.
  Result<TopKResult> r1 = fp_.QueryTpq(*q, opts, Algorithm::kDpo);
  ASSERT_TRUE(r1.ok());
  Result<TopKResult> r2 = fp_.QueryTpq(*q, opts, Algorithm::kDpo);
  ASSERT_TRUE(r2.ok());

  std::vector<ShapeStatsSnapshot> shapes = fp_.query_stats()->Shapes();
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].executions, 2u);
  EXPECT_EQ(shapes[0].errors, 0u);
  EXPECT_EQ(shapes[0].latency_ms.count, 2u);
  EXPECT_FALSE(shapes[0].example_query.empty());

  std::vector<SlowQueryEntry> slow = fp_.query_stats()->SlowLog();
  ASSERT_EQ(slow.size(), 2u);
  EXPECT_EQ(slow[0].execution.fingerprint, shapes[0].fingerprint);
  // slow_query_ms >= 0 forces trace collection, so the entry carries one.
  ASSERT_NE(slow[0].trace, nullptr);
  EXPECT_FALSE(slow[0].trace->root.name.empty());

  const std::string json = fp_.QueryStatsJson();
  EXPECT_NE(json.find(FingerprintHex(shapes[0].fingerprint)),
            std::string::npos)
      << json;
}

TEST_F(QueryStatsIntegrationTest, DifferentShapesGetDifferentFingerprints) {
  Result<Tpq> q1 = fp_.Parse("//article[./section/paragraph]");
  Result<Tpq> q2 = fp_.Parse("//article[.//paragraph]");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());

  TopKOptions opts;
  opts.k = 5;
  ASSERT_TRUE(fp_.QueryTpq(*q1, opts, Algorithm::kDpo).ok());
  ASSERT_TRUE(fp_.QueryTpq(*q2, opts, Algorithm::kDpo).ok());

  EXPECT_EQ(fp_.query_stats()->shape_count(), 2u);
  // No slow_query_ms set: the slow log stays empty.
  EXPECT_TRUE(fp_.query_stats()->SlowLog().empty());
}

TEST(QueryStatsStoreTest, RecentLimitKeepsNewestOldestFirst) {
  QueryStatsStore store;
  for (int i = 0; i < 10; ++i) {
    QueryExecution e;
    e.query = "//q" + std::to_string(i);
    store.Record(e);
  }
  std::vector<QueryExecution> recent = store.Recent(3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent[0].query, "//q7");  // Newest 3, oldest first.
  EXPECT_EQ(recent[2].query, "//q9");
  EXPECT_EQ(store.Recent(0).size(), 0u);
  EXPECT_EQ(store.Recent(100).size(), 10u);  // Limit past size: all.

  // ToJson(recent_limit) caps both bounded arrays the same way.
  const std::string json = store.ToJson(2);
  EXPECT_EQ(json.find("//q7"), std::string::npos);
  EXPECT_NE(json.find("//q8"), std::string::npos);
  EXPECT_NE(json.find("//q9"), std::string::npos);
}

// Run under TSan by the sanitizer CI job: one thread records, one thread
// resizes the store via SetOptions (shrink + grow, trimming as it goes),
// and one thread scrapes like the admin endpoint does. The invariant
// checked after the dust settles: every execution ever recorded is either
// still in the ring or counted in evictions.ring — trims and
// displacements must never double- or under-count.
TEST(QueryStatsStoreTest, EvictionCountsStayConsistentUnderConcurrency) {
  QueryStatsOptions opts;
  opts.ring_capacity = 32;
  opts.max_shapes = 8;
  QueryStatsStore store(opts);

  constexpr int kRecords = 2000;
  std::atomic<bool> stop{false};
  std::thread recorder([&store] {
    QueryExecution e;
    e.algorithm = "DPO";
    for (int i = 0; i < kRecords; ++i) {
      e.fingerprint = static_cast<uint64_t>(i % 11);
      e.query = "//r" + std::to_string(i % 11);
      e.latency_ms = static_cast<double>(i % 5);
      store.Record(e);
    }
  });
  std::thread resizer([&store, &stop] {
    QueryStatsOptions small;
    small.ring_capacity = 4;
    small.max_shapes = 2;
    small.slowlog_capacity = 2;
    QueryStatsOptions big;
    big.ring_capacity = 64;
    big.max_shapes = 32;
    while (!stop.load(std::memory_order_relaxed)) {
      store.SetOptions(small);
      store.SetOptions(big);
    }
  });
  std::thread scraper([&store, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)store.ToJson(4);
      (void)store.Recent(8);
      (void)store.Evictions();
    }
  });
  recorder.join();
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
  scraper.join();

  const QueryStatsEvictions evictions = store.Evictions();
  const size_t in_ring = store.Recent().size();
  EXPECT_EQ(static_cast<uint64_t>(kRecords),
            evictions.ring + static_cast<uint64_t>(in_ring));
  uint64_t executions = 0;
  for (const ShapeStatsSnapshot& s : store.Shapes()) {
    executions += s.executions;
  }
  EXPECT_LE(store.shape_count(), store.options().max_shapes);
  EXPECT_LE(executions, static_cast<uint64_t>(kRecords));
}

TEST_F(QueryStatsIntegrationTest, RecentRingSeesEveryExecution) {
  Result<Tpq> q = fp_.Parse("//article");
  ASSERT_TRUE(q.ok());
  TopKOptions opts;
  opts.k = 3;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(fp_.QueryTpq(*q, opts, Algorithm::kHybrid).ok());
  }
  std::vector<QueryExecution> recent = fp_.query_stats()->Recent();
  ASSERT_EQ(recent.size(), 3u);
  for (const QueryExecution& e : recent) {
    EXPECT_EQ(e.algorithm, "Hybrid");
    EXPECT_EQ(e.k, 3u);
    EXPECT_GE(e.latency_ms, 0.0);
    EXPECT_FALSE(e.error);
  }
}

}  // namespace
}  // namespace flexpath
