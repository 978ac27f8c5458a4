#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bench/data_relaxation.h"
#include "common/random.h"
#include "ir/engine.h"
#include "query/xpath_parser.h"
#include "stats/element_index.h"
#include "tests/naive_evaluator.h"
#include "tests/test_util.h"

namespace flexpath {
namespace {

/// Replaces every edge of `q` with an ad-edge (full axis generalization)
/// — the query whose exact semantics the shortcut graph implements.
Tpq FullyGeneralized(const Tpq& q) {
  Tpq out = q;
  for (VarId v : out.Vars()) {
    if (out.Parent(v) != kInvalidVar) out.SetAxis(v, Axis::kDescendant);
  }
  return out;
}

TEST(DataRelaxationTest, ClosureEdgeCountMatchesAdPairs) {
  auto corpus = testing_util::CorpusFromXml({"<a><b><c/></b><d/></a>"});
  DataRelaxationIndex closure(corpus.get());
  // ad pairs: a->{b,c,d}, b->{c} = 4 shortcut edges.
  EXPECT_EQ(closure.edge_count(), 4u);
  EXPECT_GT(closure.ApproxBytes(), 0u);
}

TEST(DataRelaxationTest, EdgeListsAreDescendants) {
  auto corpus = testing_util::CorpusFromXml({"<a><b><c/></b><d/></a>"});
  DataRelaxationIndex closure(corpus.get());
  const NodeRef root{0, 0};
  std::vector<NodeId> kids(closure.EdgesBegin(root), closure.EdgesEnd(root));
  EXPECT_EQ(kids, (std::vector<NodeId>{1, 2, 3}));
  const NodeRef leaf{0, 2};
  EXPECT_EQ(closure.EdgesBegin(leaf), closure.EdgesEnd(leaf));
}

TEST(DataRelaxationTest, EvaluationEqualsFullyGeneralizedQuery) {
  auto corpus = testing_util::ArticleCorpus();
  ElementIndex index(corpus.get());
  IrEngine ir(corpus.get());
  DataRelaxationIndex closure(corpus.get());

  const char* queries[] = {
      "//article[./section/paragraph]",
      "//article[./section[./algorithm and ./paragraph]]",
      "//article[./section[.contains(\"XML\" and \"streaming\")]]",
      "//article/section/paragraph",
  };
  for (const char* xpath : queries) {
    Result<Tpq> q = ParseXPath(xpath, corpus->tags());
    ASSERT_TRUE(q.ok()) << xpath;
    std::vector<NodeRef> via_closure = closure.Evaluate(*q, &ir);
    std::vector<NodeRef> via_query =
        NaiveEvaluate(index, FullyGeneralized(*q), &ir);
    std::sort(via_closure.begin(), via_closure.end());
    EXPECT_EQ(via_closure, via_query) << xpath;
  }
}

TEST(DataRelaxationTest, AgreesOnRandomDocuments) {
  Rng rng(31337);
  for (int iter = 0; iter < 10; ++iter) {
    Corpus corpus;
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 60));
    corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 60));
    ElementIndex index(&corpus);
    IrEngine ir(&corpus);
    DataRelaxationIndex closure(&corpus);
    for (const char* xpath : {"//a[./b]", "//b[./c/d]", "//a[./b and ./c]"}) {
      Result<Tpq> q = ParseXPath(xpath, corpus.tags());
      ASSERT_TRUE(q.ok());
      std::vector<NodeRef> via_closure = closure.Evaluate(*q, &ir);
      std::vector<NodeRef> via_query =
          NaiveEvaluate(index, FullyGeneralized(*q), &ir);
      std::sort(via_closure.begin(), via_closure.end());
      EXPECT_EQ(via_closure, via_query) << xpath << " iter " << iter;
    }
  }
}

TEST(DataRelaxationTest, ClosureGrowsFasterThanTree) {
  // The Section 7 scaling argument: shortcut edges per tree edge grow
  // with depth, so the ratio exceeds 1 and grows on nested documents.
  auto shallow = testing_util::CorpusFromXml({"<a><b/><c/><d/></a>"});
  auto deep = testing_util::CorpusFromXml({"<a><b><c><d><e/></d></c></b></a>"});
  DataRelaxationIndex s(shallow.get());
  DataRelaxationIndex d(deep.get());
  const double s_ratio = static_cast<double>(s.edge_count()) /
                         static_cast<double>(shallow->TotalNodes() - 1);
  const double d_ratio = static_cast<double>(d.edge_count()) /
                         static_cast<double>(deep->TotalNodes() - 1);
  EXPECT_GT(d_ratio, s_ratio);
  EXPECT_GT(d_ratio, 2.0);
}

}  // namespace
}  // namespace flexpath
