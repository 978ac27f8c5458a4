#include "obs/query_stats.h"

#include <atomic>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/flexpath.h"
#include "exec/topk.h"
#include "ir/ft_expr.h"
#include "query/tpq.h"
#include "query/xpath_parser.h"
#include "xml/tag_dict.h"

namespace flexpath {
namespace {

// --- Fingerprinting ------------------------------------------------------

TEST(FingerprintTest, HexIsSixteenLowercaseDigits) {
  EXPECT_EQ(FingerprintHex(0), "0000000000000000");
  EXPECT_EQ(FingerprintHex(0xABCDEF0123456789ull), "abcdef0123456789");
}

// Query logs and /statsz key shapes by fingerprint, so the rendering
// must not drift: the paper's Q1-Q3 and one pattern with an attribute
// predicate, a wildcard and contains, at the values they have always had.
TEST(FingerprintTest, PinnedForThePaperQueries) {
  const struct {
    const char* xpath;
    const char* fingerprint;
  } kCases[] = {
      {"//item[./description/parlist]", "93ae9598cebffa7b"},
      {"//item[./description/parlist and ./mailbox/mail/text]",
       "0c10e488c6286f0b"},
      {"//item[./description/parlist/listitem and ./mailbox/mail/text[./bold "
       "and ./keyword and ./emph] and ./name and ./incategory]",
       "17a079db0c3cde40"},
      {"//item[@id = 'item7' and ./*/parlist and ./mailbox/mail/text["
       ".contains(\"gold\" or \"silver\")]]",
       "2ca5bb521751d692"},
  };
  for (const auto& c : kCases) {
    TagDict dict;
    Result<Tpq> q = ParseXPath(c.xpath, &dict);
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    EXPECT_EQ(FingerprintHex(FingerprintTpq(*q, dict)), c.fingerprint)
        << c.xpath;
  }
  TagDict dict;
  Result<Tpq> q = ParseXPath(kCases[3].xpath, &dict);
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(QueryShapeKey(*q, dict),
            "(r:item!A@id='item7'(c:*(c:parlist))(c:mailbox(c:mail(c:textC("
            "\"gold\" or \"silver\")))))");
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
  QueryStatsStore store;
  const size_t n = QueryStatsStore::kRecentCapacity + 1;  // 129.
  for (size_t i = 0; i < n; ++i) {
    store.Record(MakeExec(i, static_cast<double>(i)));
  }
  std::vector<QueryExecution> recent = store.Recent();
  ASSERT_EQ(recent.size(), QueryStatsStore::kRecentCapacity);
  EXPECT_EQ(recent.front().fingerprint, 1u);     // Oldest surviving entry.
  EXPECT_EQ(recent.back().fingerprint, n - 1);   // Newest kept.
}

TEST(QueryStatsStoreTest, ShapeMapEvictsLeastRecentlyTouched) {
  QueryStatsStore store;
  const uint64_t full = QueryStatsStore::kMaxShapes;  // Shapes 1..256.
  for (uint64_t fp = 1; fp <= full; ++fp) store.Record(MakeExec(fp, 1.0));
  store.Record(MakeExec(1, 1.0));  // Touch 1 so 2 is the LRU shape.
  store.Record(MakeExec(full + 1, 1.0));  // The 257th shape evicts 2.

  EXPECT_EQ(store.shape_count(), QueryStatsStore::kMaxShapes);
  EXPECT_EQ(store.Evictions().shapes, 1u);
  std::vector<ShapeStatsSnapshot> shapes = store.Shapes();
  ASSERT_EQ(shapes.size(), QueryStatsStore::kMaxShapes);
  EXPECT_EQ(shapes[0].fingerprint, 1u);  // Two executions sort first.
  EXPECT_EQ(shapes[0].executions, 2u);
  for (const ShapeStatsSnapshot& s : shapes) EXPECT_NE(s.fingerprint, 2u);
}

TEST(QueryStatsStoreTest, ShapeEvictionMatchesARecencyModel) {
  // 1,000 distinct shapes, each new one followed on odd steps by a
  // re-touch of some earlier shape (live or already evicted). The model
  // keeps fingerprints least recently recorded first, with each one's
  // executions since it last entered the store.
  QueryStatsStore store;
  std::vector<std::pair<uint64_t, uint64_t>> model;  // (fingerprint, runs)
  uint64_t evicted = 0;
  auto record = [&](uint64_t fp) {
    store.Record(MakeExec(fp, 1.0));
    uint64_t runs = 0;
    for (auto it = model.begin(); it != model.end(); ++it) {
      if (it->first == fp) {
        runs = it->second;
        model.erase(it);
        break;
      }
    }
    model.emplace_back(fp, runs + 1);
    if (model.size() > QueryStatsStore::kMaxShapes) {
      model.erase(model.begin());
      ++evicted;
    }
  };
  std::mt19937_64 rng(29);
  for (uint64_t fp = 0; fp < 1000; ++fp) {
    record(fp);
    if (fp % 2 == 1) record(rng() % (fp + 1));
  }

  ASSERT_EQ(store.shape_count(), model.size());
  EXPECT_EQ(store.Evictions().shapes, evicted);
  std::map<uint64_t, uint64_t> want(model.begin(), model.end());
  std::map<uint64_t, uint64_t> got;
  for (const ShapeStatsSnapshot& s : store.Shapes()) {
    got[s.fingerprint] = s.executions;
  }
  EXPECT_EQ(got, want);
}

TEST(QueryStatsStoreTest, SlowLogIsBoundedAndOldestFirst) {
  QueryStatsStore store;
  const size_t n = QueryStatsStore::kSlowLogCapacity + 1;  // 65.
  for (size_t i = 0; i < n; ++i) {
    store.RecordSlow(MakeExec(i, 10.0), 5.0, nullptr);
  }
  std::vector<SlowQueryEntry> slow = store.SlowLog();
  ASSERT_EQ(slow.size(), QueryStatsStore::kSlowLogCapacity);
  EXPECT_EQ(slow.front().execution.fingerprint, 1u);
  EXPECT_EQ(slow.back().execution.fingerprint, n - 1);
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

TEST(QueryStatsStoreTest, EvictionsAreCountedPerStructure) {
  QueryStatsStore store;
  // 257 distinct shapes into 256 slots and a ring of 128; 65 slow
  // entries into a slow log of 64.
  for (uint64_t i = 0; i <= QueryStatsStore::kMaxShapes; ++i) {
    store.Record(MakeExec(i, 1.0));
  }
  for (uint64_t i = 0; i <= QueryStatsStore::kSlowLogCapacity; ++i) {
    store.RecordSlow(MakeExec(i, 10.0), 5.0, nullptr);
  }

  const QueryStatsEvictions ev = store.Evictions();
  EXPECT_EQ(ev.shapes, 1u);
  EXPECT_EQ(ev.ring, 129u);
  EXPECT_EQ(ev.slowlog, 1u);

  const std::string json = store.ToJson();
  EXPECT_NE(json.find("\"evictions\":{\"shapes\":1,\"ring\":129,"
                      "\"slowlog\":1}"),
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

  const std::string json = fp_.query_stats()->ToJson();
  EXPECT_NE(json.find(FingerprintHex(shapes[0].fingerprint)),
            std::string::npos)
      << json;
}

// A slow-query threshold forces a trace even with collect_trace off; that
// trace is the run's: the result carries it, it becomes the last query
// trace (what /tracez and :trace serve), and the slow-log entry holds the
// same one.
TEST_F(QueryStatsIntegrationTest, SlowQueryTraceBecomesTheLastQueryTrace) {
  Result<Tpq> q = fp_.Parse("//article[./section/paragraph]");
  ASSERT_TRUE(q.ok());
  TopKOptions opts;
  opts.k = 5;
  opts.collect_trace = false;
  opts.slow_query_ms = 0.0;
  Result<TopKResult> r = fp_.QueryTpq(*q, opts, Algorithm::kDpo);
  ASSERT_TRUE(r.ok());

  const std::shared_ptr<const QueryTrace> last = fp_.last_query_trace();
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(r->trace, last);
  const std::vector<SlowQueryEntry> slow = fp_.query_stats()->SlowLog();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_EQ(slow[0].trace, last);
  EXPECT_FALSE(fp_.LastTraceChromeJson().empty());
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

// Run under TSan by the sanitizer CI job: one thread records while
// another scrapes like the admin endpoint does. The invariant checked
// after the dust settles: every execution ever recorded is either still
// in the ring or counted in evictions.ring — displacements must never
// double- or under-count.
TEST(QueryStatsStoreTest, EvictionCountsStayConsistentUnderConcurrency) {
  QueryStatsStore store;

  constexpr int kRecords = 2000;
  std::atomic<bool> stop{false};
  std::thread recorder([&store] {
    QueryExecution e;
    e.algorithm = "DPO";
    for (int i = 0; i < kRecords; ++i) {
      e.fingerprint = static_cast<uint64_t>(i % 300);
      e.query = "//r" + std::to_string(i % 300);
      e.latency_ms = static_cast<double>(i % 5);
      store.Record(e);
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
  scraper.join();

  const QueryStatsEvictions evictions = store.Evictions();
  const size_t in_ring = store.Recent().size();
  EXPECT_EQ(static_cast<uint64_t>(kRecords),
            evictions.ring + static_cast<uint64_t>(in_ring));
  uint64_t executions = 0;
  for (const ShapeStatsSnapshot& s : store.Shapes()) {
    executions += s.executions;
  }
  EXPECT_LE(store.shape_count(), QueryStatsStore::kMaxShapes);
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
