#include "common/trace.h"

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "exec/topk.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "stats/document_stats.h"
#include "stats/element_index.h"
#include "tests/test_util.h"

namespace flexpath {
namespace {

TEST(TraceCollectorTest, NestedSpansFormATree) {
  TraceCollector tc("query");
  {
    Span outer(&tc, "outer");
    EXPECT_TRUE(outer.active());
    {
      Span inner(&tc, "inner");
      inner.Annotate("round", uint64_t{3});
    }
  }
  QueryTrace trace = tc.Finish();
  EXPECT_EQ(trace.root.name, "query");
  ASSERT_EQ(trace.root.children.size(), 1u);
  const TraceSpan& outer = *trace.root.children[0];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 1u);
  EXPECT_EQ(outer.children[0]->name, "inner");
  EXPECT_DOUBLE_EQ(outer.children[0]->NumberOr0("round"), 3.0);
}

TEST(TraceCollectorTest, SiblingsAfterEarlyClose) {
  TraceCollector tc;
  {
    Span a(&tc, "a");
    a.Close();
    a.Close();  // Idempotent.
    EXPECT_FALSE(a.active());
    Span b(&tc, "b");
  }
  QueryTrace trace = tc.Finish();
  ASSERT_EQ(trace.root.children.size(), 2u);
  EXPECT_EQ(trace.root.children[0]->name, "a");
  EXPECT_EQ(trace.root.children[1]->name, "b");
}

TEST(TraceCollectorTest, TimesAreNonNegativeAndNested) {
  TraceCollector tc;
  {
    Span child(&tc, "child");
  }
  QueryTrace trace = tc.Finish();
  const TraceSpan& child = *trace.root.children[0];
  EXPECT_GE(child.start_ms, trace.root.start_ms);
  EXPECT_GE(child.elapsed_ms, 0.0);
  EXPECT_GE(trace.root.elapsed_ms, child.elapsed_ms);
}

TEST(TraceSpanTest, AnnotationLookup) {
  TraceSpan span;
  span.Annotate("label", std::string("hello"));
  span.Annotate("n", 2.5);
  EXPECT_EQ(span.TextOr("label"), "hello");
  EXPECT_DOUBLE_EQ(span.NumberOr0("n"), 2.5);
  EXPECT_DOUBLE_EQ(span.NumberOr0("label"), 0.0);  // Text, not numeric.
  EXPECT_EQ(span.TextOr("n"), "");                 // Numeric, not text.
  EXPECT_DOUBLE_EQ(span.NumberOr0("missing"), 0.0);
  EXPECT_EQ(span.TextOr("missing"), "");
}

TEST(TraceSpanTest, ChildrenNamedAndFind) {
  TraceCollector tc;
  {
    Span r1(&tc, "round");
    {
      Span nested(&tc, "plan_build");
    }
  }
  {
    Span r2(&tc, "round");
  }
  QueryTrace trace = tc.Finish();
  EXPECT_EQ(trace.root.ChildrenNamed("round").size(), 2u);
  EXPECT_EQ(trace.root.ChildrenNamed("plan_build").size(), 0u);  // Direct only.
  const TraceSpan* found = trace.root.Find("plan_build");  // Depth-first.
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->name, "plan_build");
  EXPECT_EQ(trace.root.Find("nope"), nullptr);
}

TEST(SpanTest, NullCollectorIsANoOp) {
  Span s(nullptr, "phase");
  EXPECT_FALSE(s.active());
  s.Annotate("k", std::string("v"));  // Must not crash.
  s.Annotate("n", 1.0);
  s.Close();
}

TEST(TraceJsonTest, RendersTreeAndAnnotations) {
  TraceCollector tc("query");
  {
    Span round(&tc, "round");
    round.Annotate("dropped", std::string("pc($2,$3)"));
    round.Annotate("penalty", 0.25);
  }
  const std::string json = TraceToJson(tc.Finish());
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"children\":["), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"round\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":\"pc($2,$3)\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"penalty\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_ms\""), std::string::npos) << json;
}

TEST(TraceTextTest, IndentsChildrenAndShowsAnnotations) {
  TraceCollector tc("query");
  {
    Span round(&tc, "round");
    round.Annotate("round", uint64_t{1});
  }
  const std::string text = TraceToText(tc.Finish());
  EXPECT_NE(text.find("query"), std::string::npos) << text;
  EXPECT_NE(text.find("\n  round"), std::string::npos) << text;
  EXPECT_NE(text.find("[round=1]"), std::string::npos) << text;
}

TEST(ExecCountersTest, AddSumsAllFieldsAndMaxesBucketsPeak) {
  ExecCounters a;
  a.plan_passes = 1;
  a.candidates_probed = 10;
  a.tuples_created = 20;
  a.tuples_pruned = 3;
  a.score_sorts = 2;
  a.score_sorted_items = 40;
  a.buckets_peak = 7;
  ExecCounters b;
  b.plan_passes = 2;
  b.candidates_probed = 5;
  b.tuples_created = 6;
  b.tuples_pruned = 1;
  b.score_sorts = 1;
  b.score_sorted_items = 8;
  b.buckets_peak = 4;  // Below a's peak: Add keeps the max, not the sum.

  a.Add(b);
  EXPECT_EQ(a.plan_passes, 3u);
  EXPECT_EQ(a.candidates_probed, 15u);
  EXPECT_EQ(a.tuples_created, 26u);
  EXPECT_EQ(a.tuples_pruned, 4u);
  EXPECT_EQ(a.score_sorts, 3u);
  EXPECT_EQ(a.score_sorted_items, 48u);
  EXPECT_EQ(a.buckets_peak, 7u);
}

TEST(TraceSpanTest, ShiftByOffsetsSelfAndEveryDescendant) {
  TraceSpan root;
  root.start_ms = 1.0;
  auto child = std::make_unique<TraceSpan>();
  child->start_ms = 2.0;
  auto grandchild = std::make_unique<TraceSpan>();
  grandchild->start_ms = 3.0;
  child->children.push_back(std::move(grandchild));
  root.children.push_back(std::move(child));

  root.ShiftBy(10.0);
  EXPECT_DOUBLE_EQ(root.start_ms, 11.0);
  EXPECT_DOUBLE_EQ(root.children[0]->start_ms, 12.0);
  EXPECT_DOUBLE_EQ(root.children[0]->children[0]->start_ms, 13.0);

  // A zero shift is the identity...
  root.ShiftBy(0.0);
  EXPECT_DOUBLE_EQ(root.start_ms, 11.0);
  EXPECT_DOUBLE_EQ(root.children[0]->children[0]->start_ms, 13.0);

  // ...and a negative shift undoes a positive one exactly.
  root.ShiftBy(-10.0);
  EXPECT_DOUBLE_EQ(root.start_ms, 1.0);
  EXPECT_DOUBLE_EQ(root.children[0]->start_ms, 2.0);
  EXPECT_DOUBLE_EQ(root.children[0]->children[0]->start_ms, 3.0);
}

TEST(TraceCollectorTest, AdoptGraftsDeeplyNestedTreePreservingAnnotations) {
  // Worker side: its own collector, a three-deep span tree with both
  // text and numeric annotations at every level.
  TraceCollector worker("worker_round");
  worker.current()->Annotate("worker", uint64_t{4});
  {
    Span mid(&worker, "plan_build");
    mid.Annotate("steps", uint64_t{7});
    {
      Span leaf(&worker, "join_step");
      leaf.Annotate("tag", std::string("section"));
      leaf.Annotate("tuples", 42.0);
    }
  }
  QueryTrace worker_trace = worker.Finish();

  // Coordinator side: graft under an open child span, shifted onto the
  // parent timeline.
  TraceCollector parent("query");
  {
    Span wave(&parent, "wave");
    worker_trace.root.ShiftBy(parent.NowMs());
    parent.Adopt(std::move(worker_trace.root));
  }
  QueryTrace trace = parent.Finish();

  ASSERT_EQ(trace.root.children.size(), 1u);
  const TraceSpan& wave = *trace.root.children[0];
  ASSERT_EQ(wave.children.size(), 1u);
  const TraceSpan& adopted = *wave.children[0];
  EXPECT_EQ(adopted.name, "worker_round");
  EXPECT_DOUBLE_EQ(adopted.NumberOr0("worker"), 4.0);
  ASSERT_EQ(adopted.children.size(), 1u);
  EXPECT_DOUBLE_EQ(adopted.children[0]->NumberOr0("steps"), 7.0);
  const TraceSpan* leaf = trace.root.Find("join_step");
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->TextOr("tag"), "section");
  EXPECT_DOUBLE_EQ(leaf->NumberOr0("tuples"), 42.0);
  // Shifted times stay ordered within the parent timeline.
  EXPECT_GE(adopted.start_ms, trace.root.start_ms);
  EXPECT_GE(leaf->start_ms, adopted.start_ms);
}

TEST(TraceCollectorTest, AdoptIntoRootAfterChildrenKeepsSiblingOrder) {
  TraceCollector tc("query");
  {
    Span first(&tc, "first");
  }
  TraceSpan orphan;
  orphan.name = "adopted";
  tc.Adopt(std::move(orphan));
  {
    Span last(&tc, "last");
  }
  QueryTrace trace = tc.Finish();
  ASSERT_EQ(trace.root.children.size(), 3u);
  EXPECT_EQ(trace.root.children[0]->name, "first");
  EXPECT_EQ(trace.root.children[1]->name, "adopted");
  EXPECT_EQ(trace.root.children[2]->name, "last");
}

TEST(ChromeJsonTest, EmitsCompleteEventsWithRequiredKeys) {
  TraceCollector tc("query");
  {
    Span round(&tc, "initial_round");
    round.Annotate("penalty", 0.25);
    round.Annotate("dropped", std::string("pc($1,$2)"));
  }
  const std::string json = TraceToChromeJson(tc.Finish());
  // Top-level shape.
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos)
      << json;
  // Every span is a complete event with the viewer-required keys.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"ts\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dur\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"query\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\":\"initial_round\""), std::string::npos)
      << json;
  // Annotations become args, numbers staying numeric.
  EXPECT_NE(json.find("\"penalty\":0.25"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dropped\":\"pc($1,$2)\""), std::string::npos)
      << json;
  // Thread-name metadata labels the coordinator lane.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"coordinator\""), std::string::npos) << json;
}

TEST(ChromeJsonTest, WorkerAnnotationMapsSubtreeToWorkerTid) {
  TraceCollector tc("query");
  TraceSpan worker_span;
  worker_span.name = "relaxation_round";
  worker_span.Annotate("worker", uint64_t{0});
  auto nested = std::make_unique<TraceSpan>();
  nested->name = "join_step";
  worker_span.children.push_back(std::move(nested));
  tc.Adopt(std::move(worker_span));
  const std::string json = TraceToChromeJson(tc.Finish());
  // Worker 0 maps to tid 2 (coordinator owns tid 1); the nested span,
  // which carries no annotation of its own, inherits the lane.
  const size_t round = json.find("\"name\":\"relaxation_round\"");
  const size_t step = json.find("\"name\":\"join_step\"");
  ASSERT_NE(round, std::string::npos) << json;
  ASSERT_NE(step, std::string::npos) << json;
  const auto tid_before = [&](size_t pos) {
    const size_t tid = json.rfind("\"tid\":", pos);
    return json.substr(tid, json.find(',', tid) - tid);
  };
  EXPECT_EQ(tid_before(round), "\"tid\":2") << json;
  EXPECT_EQ(tid_before(step), "\"tid\":2") << json;
  EXPECT_NE(json.find("\"worker 0\""), std::string::npos) << json;
}

/// End-to-end: a traced DPO run must expose one span per executed
/// relaxation round, and the per-round counter deltas must reassemble
/// into TopKResult::counters.
class DpoTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::ArticleCorpus();
    index_ = std::make_unique<ElementIndex>(corpus_.get());
    stats_ = std::make_unique<DocumentStats>(corpus_.get());
    ir_ = std::make_unique<IrEngine>(corpus_.get());
    processor_ = std::make_unique<TopKProcessor>(index_.get(), stats_.get(),
                                                 ir_.get());
  }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<ElementIndex> index_;
  std::unique_ptr<DocumentStats> stats_;
  std::unique_ptr<IrEngine> ir_;
  std::unique_ptr<TopKProcessor> processor_;
};

TEST_F(DpoTraceTest, RoundSpansMatchRelaxationsAndCounters) {
  // K above the exact-match count forces DPO through relaxation rounds.
  Result<Tpq> q = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 5;
  opts.collect_trace = true;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kDpo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  ASSERT_GT(result->relaxations_used, 0u);

  const TraceSpan& root = result->trace->root;
  EXPECT_EQ(root.NumberOr0("relaxations_used"),
            static_cast<double>(result->relaxations_used));

  // Exactly one "relaxation_round" span per relaxation actually executed
  // (round 0, the unrelaxed query, traces as "initial_round").
  EXPECT_EQ(root.ChildrenNamed("relaxation_round").size(),
            result->relaxations_used);
  EXPECT_EQ(root.ChildrenNamed("initial_round").size(), 1u);

  // Each round span carries the delta of every ExecCounters field; the
  // deltas across all rounds must sum back to the result's totals
  // (buckets_peak: DPO runs exact plans, so every delta is zero and the
  // sum equals the max).
  std::vector<const TraceSpan*> rounds = root.ChildrenNamed("initial_round");
  for (const TraceSpan* s : root.ChildrenNamed("relaxation_round")) {
    rounds.push_back(s);
  }
  result->counters.ForEach([&](const char* name, uint64_t total) {
    double sum = 0.0;
    for (const TraceSpan* round : rounds) {
      sum += round->NumberOr0(std::string("counters.") + name);
    }
    EXPECT_DOUBLE_EQ(sum, static_cast<double>(total)) << name;
  });

  // Relaxation rounds name what they dropped.
  for (const TraceSpan* round : root.ChildrenNamed("relaxation_round")) {
    EXPECT_FALSE(round->TextOr("dropped").empty());
    EXPECT_GT(round->NumberOr0("penalty"), 0.0);
  }
}

TEST_F(DpoTraceTest, RootAndRoundSpansCarryCpuMs) {
  Result<Tpq> q = ParseXPath("//article[./section]", corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 2;
  opts.collect_trace = true;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kDpo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->trace, nullptr);
  // The root span bills the whole query; each round span its own share.
  const TraceSpan& root = result->trace->root;
  EXPECT_DOUBLE_EQ(root.NumberOr0("cpu_ms"), result->cpu_ms);
  EXPECT_GT(result->cpu_ms, 0.0);
  std::vector<const TraceSpan*> rounds = root.ChildrenNamed("initial_round");
  for (const TraceSpan* round : root.ChildrenNamed("relaxation_round")) {
    rounds.push_back(round);
  }
  ASSERT_FALSE(rounds.empty());
  for (const TraceSpan* round : rounds) {
    const auto cpu = std::find_if(
        round->annotations.begin(), round->annotations.end(),
        [](const TraceAnnotation& a) { return a.key == "cpu_ms"; });
    ASSERT_NE(cpu, round->annotations.end()) << round->name;
    EXPECT_TRUE(cpu->is_number);
    EXPECT_GE(cpu->number, 0.0);
  }
}

/// Asserts that two span trees have the same shape: span names, nesting
/// and every "counters.*" annotation. Times, cpu_ms and the wave-worker
/// index legitimately differ between thread counts and are ignored.
void ExpectSameShape(const TraceSpan& a, const TraceSpan& b,
                     const std::string& path) {
  const std::string here = path + "/" + a.name;
  ASSERT_EQ(a.name, b.name) << path;
  auto counters = [](const TraceSpan& span) {
    std::vector<std::pair<std::string, double>> out;
    for (const TraceAnnotation& ann : span.annotations) {
      if (ann.key.rfind("counters.", 0) == 0) {
        out.emplace_back(ann.key, ann.number);
      }
    }
    return out;
  };
  EXPECT_EQ(counters(a), counters(b)) << here;
  ASSERT_EQ(a.children.size(), b.children.size()) << here;
  for (size_t i = 0; i < a.children.size(); ++i) {
    ExpectSameShape(*a.children[i], *b.children[i], here);
  }
}

TEST_F(DpoTraceTest, SpanTreeIdenticalAcrossThreadCounts) {
  // DPO at 4 threads evaluates rounds in waves of 1, 2 and 4, the first on
  // the calling thread and the rest one round per worker; the merged
  // trace must be the serial run's, round for round. SSO's one plan
  // fans its join steps out over tuple chunks instead.
  Result<Tpq> q = ParseXPath(
      "//article[./section[./algorithm and ./paragraph[.contains(\"XML\" "
      "and \"streaming\")]]]",
      corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (Algorithm algo : {Algorithm::kDpo, Algorithm::kSso}) {
    TopKOptions opts;
    opts.k = 50;
    opts.collect_trace = true;
    opts.num_threads = 1;
    Result<TopKResult> serial = processor_->Run(*q, algo, opts);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    opts.num_threads = 4;
    Result<TopKResult> parallel = processor_->Run(*q, algo, opts);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    if (algo == Algorithm::kDpo) {
      ASSERT_GE(serial->relaxations_used, 3u);
      ASSERT_EQ(serial->trace->root.ChildrenNamed("relaxation_round").size(),
                serial->relaxations_used);
    }
    ExpectSameShape(serial->trace->root, parallel->trace->root,
                    AlgorithmName(algo));
  }
}

TEST_F(DpoTraceTest, TraceIsNullUnlessRequested) {
  Result<Tpq> q = ParseXPath("//article[./section]", corpus_->tags());
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  TopKOptions opts;
  opts.k = 2;
  Result<TopKResult> result = processor_->Run(*q, Algorithm::kDpo, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->trace, nullptr);
}

}  // namespace
}  // namespace flexpath
