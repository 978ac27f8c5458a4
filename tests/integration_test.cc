#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/flexpath.h"
#include "xmark/generator.h"
#include "xml/serializer.h"

namespace flexpath {
namespace {

const char* kArticles[] = {
    R"(<article id="a1"><title>stream processing</title>
       <section><title>evaluation</title>
         <algorithm>stack based join</algorithm>
         <paragraph>XML streaming evaluation with low memory</paragraph>
       </section></article>)",
    R"(<article id="a2"><title>engines</title>
       <section><title>XML streaming engines</title>
         <algorithm>one pass automaton</algorithm>
         <paragraph>we discuss several engines in depth</paragraph>
       </section></article>)",
    R"(<article id="a3"><title>joins</title>
       <appendix><algorithm>twig join</algorithm></appendix>
       <section><title>background</title>
         <paragraph>XML streaming joins background material</paragraph>
       </section></article>)",
};

class FlexPathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const char* xml : kArticles) {
      Result<DocId> id = fp_.AddDocumentXml(xml);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    ASSERT_TRUE(fp_.Build().ok());
  }

  FlexPath fp_;
};

TEST_F(FlexPathTest, EndToEndQuery) {
  Result<std::vector<QueryAnswer>> answers = fp_.Query(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      TopKOptions{.k = 3, .scheme = RankScheme::kStructureFirst, .weights = {}});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->size(), 3u);
  // a1 is exact; a2 and a3 arrive through relaxations with lower scores.
  EXPECT_EQ((*answers)[0].tag, "article");
  EXPECT_NEAR((*answers)[0].score.ss, 3.0, 1e-9);
  EXPECT_LT((*answers)[1].score.ss, 3.0);
  EXPECT_FALSE((*answers)[0].snippet.empty());
}

TEST_F(FlexPathTest, AllAlgorithmsRunViaFacade) {
  Result<Tpq> q = fp_.Parse(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]");
  ASSERT_TRUE(q.ok());
  for (Algorithm algo :
       {Algorithm::kDpo, Algorithm::kSso, Algorithm::kHybrid}) {
    Result<TopKResult> result = fp_.QueryTpq(*q, TopKOptions{.k = 3, .scheme = RankScheme::kStructureFirst, .weights = {}}, algo);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    EXPECT_EQ(result->answers.size(), 3u) << AlgorithmName(algo);
  }
}

TEST_F(FlexPathTest, DescribeRendersQuery) {
  Result<Tpq> q = fp_.Parse("//article[./section[.contains(\"XML\")]]");
  ASSERT_TRUE(q.ok());
  std::string desc = fp_.Describe(*q);
  EXPECT_NE(desc.find("article"), std::string::npos);
  EXPECT_NE(desc.find("section"), std::string::npos);
  EXPECT_NE(desc.find("contains"), std::string::npos);
}

TEST_F(FlexPathTest, ParseErrorsSurface) {
  EXPECT_FALSE(fp_.Query("not an xpath").ok());
  EXPECT_FALSE(fp_.Query("//a[./b or ./c]").ok());
}

TEST_F(FlexPathTest, UnknownTagGivesEmptyNotError) {
  Result<std::vector<QueryAnswer>> answers =
      fp_.Query("//nonexistent[./alsomissing]", TopKOptions{.k = 5, .scheme = RankScheme::kStructureFirst, .weights = {}});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_TRUE(answers->empty());
}

// The facade's accounting as a /metrics scraper reads it: the registry
// deltas around the queries.
TEST_F(FlexPathTest, RegistryAccountsEverySuccessfulQuery) {
  Result<Tpq> q = fp_.Parse(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]");
  ASSERT_TRUE(q.ok());
  TopKOptions opts;
  opts.k = 3;
  opts.num_threads = 1;
  ExecCounters expected;
  double cpu_ms = 0.0;
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  // Two Hybrid runs make buckets_peak's max differ from a sum.
  for (Algorithm algo : {Algorithm::kDpo, Algorithm::kSso,
                         Algorithm::kHybrid, Algorithm::kHybrid}) {
    Result<TopKResult> result = fp_.QueryTpq(*q, opts, algo);
    ASSERT_TRUE(result.ok()) << AlgorithmName(algo);
    expected.Add(result->counters);
    cpu_ms += result->cpu_ms;
  }
  ASSERT_GT(expected.buckets_peak, 0u);
  opts.k = 0;  // Rejected up front: counted as an error.
  EXPECT_FALSE(fp_.QueryTpq(*q, opts).ok());
  const MetricsSnapshot after = MetricsRegistry::Global().Snapshot();

  // A counter missing from `before` was registered by these queries.
  auto delta = [&](const std::string& name) {
    const auto it = before.counters.find(name);
    return after.counters.at(name) -
           (it == before.counters.end() ? 0 : it->second);
  };
  EXPECT_EQ(delta("query.count"), 5u);
  EXPECT_EQ(delta("query.errors"), 1u);
  const HistogramSnapshot& cpu = after.histograms.at("query.cpu_ms");
  const auto cpu_before = before.histograms.find("query.cpu_ms");
  const bool fresh = cpu_before == before.histograms.end();
  EXPECT_EQ(cpu.count - (fresh ? 0 : cpu_before->second.count), 4u);
  EXPECT_GT(cpu_ms, 0.0);
  EXPECT_NEAR(cpu.sum - (fresh ? 0.0 : cpu_before->second.sum), cpu_ms,
              1e-6 * cpu_ms);
  ExecCounters::VisitFields(
      expected,
      [&](const char* name, const uint64_t& value, ExecCounters::Agg agg) {
        const std::string field = name;
        if (agg == ExecCounters::Agg::kMax) {
          // A process-wide high-water gauge: at least this run's peak.
          EXPECT_GE(after.gauges.at("exec." + field),
                    static_cast<int64_t>(value));
        } else {
          const char* layer =
              field == "rounds_pruned_static" ? "query." : "exec.";
          EXPECT_EQ(delta(layer + field), value) << name;
        }
      });
}

TEST(FlexPathLifecycleTest, BuildRequiredBeforeQuery) {
  FlexPath fp;
  ASSERT_TRUE(fp.AddDocumentXml("<a><b/></a>").ok());
  EXPECT_FALSE(fp.Query("//a").ok());  // no Build() yet
  ASSERT_TRUE(fp.Build().ok());
  EXPECT_TRUE(fp.Query("//a").ok());
  EXPECT_FALSE(fp.Build().ok());                      // double build
  EXPECT_FALSE(fp.AddDocumentXml("<c/>").ok());       // add after build
}

TEST(FlexPathLifecycleTest, EmptyCorpusRejected) {
  FlexPath fp;
  EXPECT_FALSE(fp.Build().ok());
}

TEST(FlexPathLifecycleTest, BadXmlRejected) {
  FlexPath fp;
  EXPECT_FALSE(fp.AddDocumentXml("<a><b></a>").ok());
}

TEST(FlexPathXMarkTest, EndToEndOnGeneratedData) {
  FlexPath fp;
  XMarkOptions gopts;
  gopts.target_bytes = 100000;
  gopts.seed = 5;
  Result<Document> doc = GenerateXMark(gopts, fp.tags());
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(fp.AddDocument(std::move(doc).value()).ok());
  ASSERT_TRUE(fp.Build().ok());

  // Paper benchmark query Q2 with a K that forces relaxation.
  Result<Tpq> q = fp.Parse(
      "//item[./description/parlist and ./mailbox/mail/text]");
  ASSERT_TRUE(q.ok());
  Result<TopKResult> strict = fp.QueryTpq(*q, TopKOptions{.k = 1, .scheme = RankScheme::kStructureFirst, .weights = {}});
  ASSERT_TRUE(strict.ok());
  ASSERT_EQ(strict->answers.size(), 1u);

  Result<TopKResult> relaxed = fp.QueryTpq(*q, TopKOptions{.k = 500, .scheme = RankScheme::kStructureFirst, .weights = {}});
  ASSERT_TRUE(relaxed.ok());
  EXPECT_GT(relaxed->answers.size(), strict->answers.size());
  EXPECT_GT(relaxed->relaxations_used, 0u);
  // All item answers.
  for (const RankedAnswer& a : relaxed->answers) {
    EXPECT_EQ(std::as_const(fp.corpus()).tags().Name(
                  fp.corpus().tag(a.node)),
              "item");
  }
}

TEST(FlexPathXMarkTest, FullTextQueryOnGeneratedData) {
  FlexPath fp;
  XMarkOptions gopts;
  gopts.target_bytes = 100000;
  gopts.seed = 6;
  Result<Document> doc = GenerateXMark(gopts, fp.tags());
  ASSERT_TRUE(doc.ok());
  ASSERT_TRUE(fp.AddDocument(std::move(doc).value()).ok());
  ASSERT_TRUE(fp.Build().ok());

  Result<std::vector<QueryAnswer>> answers = fp.Query(
      "//item[./description[.contains(\"gold\")]]", TopKOptions{.k = 10, .scheme = RankScheme::kStructureFirst, .weights = {}});
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_FALSE(answers->empty());
  for (const QueryAnswer& a : *answers) {
    EXPECT_GE(a.score.ks, 0.0);
    EXPECT_LE(a.score.ks, 1.0);
  }
}

}  // namespace
}  // namespace flexpath
