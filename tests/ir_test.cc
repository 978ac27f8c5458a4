#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ir/engine.h"
#include "ir/ft_expr.h"
#include "ir/inverted_index.h"
#include "ir/stemmer.h"
#include "ir/tokenizer.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "tests/test_util.h"

namespace flexpath {
namespace {

// --- Porter stemmer ------------------------------------------------------

struct StemCase {
  const char* in;
  const char* out;
};

class StemmerTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(StemmerTest, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().in), GetParam().out)
      << "input: " << GetParam().in;
}

// Expected outputs from the reference Porter implementation.
INSTANTIATE_TEST_SUITE_P(
    ReferencePairs, StemmerTest,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"hesitanci", "hesit"},
        StemCase{"digitizer", "digit"}, StemCase{"conformabli", "conform"},
        StemCase{"radicalli", "radic"}, StemCase{"differentli", "differ"},
        StemCase{"vileli", "vile"}, StemCase{"analogousli", "analog"},
        StemCase{"vietnamization", "vietnam"},
        StemCase{"predication", "predic"}, StemCase{"operator", "oper"},
        StemCase{"feudalism", "feudal"}, StemCase{"decisiveness", "decis"},
        StemCase{"hopefulness", "hope"}, StemCase{"callousness", "callous"},
        StemCase{"formaliti", "formal"}, StemCase{"sensitiviti", "sensit"},
        StemCase{"sensibiliti", "sensibl"}, StemCase{"triplicate", "triplic"},
        StemCase{"formative", "form"}, StemCase{"formalize", "formal"},
        StemCase{"electriciti", "electr"}, StemCase{"electrical", "electr"},
        StemCase{"hopeful", "hope"}, StemCase{"goodness", "good"},
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"gyroscopic", "gyroscop"}, StemCase{"adjustable", "adjust"},
        StemCase{"defensible", "defens"}, StemCase{"irritant", "irrit"},
        StemCase{"replacement", "replac"}, StemCase{"adjustment", "adjust"},
        StemCase{"dependent", "depend"}, StemCase{"adoption", "adopt"},
        StemCase{"homologou", "homolog"}, StemCase{"communism", "commun"},
        StemCase{"activate", "activ"}, StemCase{"angulariti", "angular"},
        StemCase{"homologous", "homolog"}, StemCase{"effective", "effect"},
        StemCase{"bowdlerize", "bowdler"}, StemCase{"probate", "probat"},
        StemCase{"rate", "rate"}, StemCase{"cease", "ceas"},
        StemCase{"controll", "control"}, StemCase{"roll", "roll"},
        StemCase{"streaming", "stream"}, StemCase{"xml", "xml"},
        StemCase{"algorithms", "algorithm"}, StemCase{"queries", "queri"},
        StemCase{"a", "a"}, StemCase{"is", "is"}, StemCase{"be", "be"}));

// --- Tokenizer -----------------------------------------------------------

TEST(TokenizerTest, LowercasesAndSplits) {
  TokenizerOptions opts;
  opts.stem = false;
  opts.drop_stopwords = false;
  std::vector<std::string> tokens =
      Tokenize("Hello, World! x2", opts);
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[1], "world");
  EXPECT_EQ(tokens[2], "x2");
}

TEST(TokenizerTest, DropsStopwords) {
  TokenizerOptions opts;
  opts.stem = false;
  std::vector<std::string> tokens = Tokenize("the cat and the hat", opts);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "cat");
  EXPECT_EQ(tokens[1], "hat");
}

TEST(TokenizerTest, StemsWhenEnabled) {
  std::vector<std::string> tokens = Tokenize("streaming algorithms");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0], "stream");
  EXPECT_EQ(tokens[1], "algorithm");
}

TEST(TokenizerTest, EmptyInput) {
  EXPECT_TRUE(Tokenize("").empty());
  EXPECT_TRUE(Tokenize("  ,.;  ").empty());
}

TEST(TokenizerTest, NormalizeTermMatchesTokenizer) {
  EXPECT_EQ(NormalizeTerm("Streaming"), "stream");
  EXPECT_EQ(NormalizeTerm("THE"), "");  // stopword
}

// --- FtExpr --------------------------------------------------------------

TEST(FtExprTest, ParsesConjunction) {
  Result<FtExpr> e = ParseFtExpr("\"XML\" and \"streaming\"");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e->kind(), FtKind::kAnd);
  EXPECT_EQ(e->children()[0].term(), "xml");
  EXPECT_EQ(e->children()[1].term(), "stream");
}

TEST(FtExprTest, ParsesPrecedenceAndParens) {
  Result<FtExpr> e = ParseFtExpr("a and b or c");
  ASSERT_TRUE(e.ok());
  // 'and' binds tighter: (a and b) or c.
  EXPECT_EQ(e->kind(), FtKind::kOr);
  EXPECT_EQ(e->children()[0].kind(), FtKind::kAnd);

  Result<FtExpr> f = ParseFtExpr("a and (b or c)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->kind(), FtKind::kAnd);
  EXPECT_EQ(f->children()[1].kind(), FtKind::kOr);
}

TEST(FtExprTest, ParsesNot) {
  Result<FtExpr> e = ParseFtExpr("not \"gold\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->kind(), FtKind::kNot);
  EXPECT_EQ(e->children()[0].term(), "gold");
}

TEST(FtExprTest, MultiwordQuotedIsPhrase) {
  Result<FtExpr> e = ParseFtExpr("\"gold ring\"");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->kind(), FtKind::kPhrase);
  ASSERT_EQ(e->phrase().size(), 2u);
  EXPECT_EQ(e->phrase()[0], "gold");
  EXPECT_EQ(e->phrase()[1], "ring");
}

TEST(FtExprTest, CanonicalToStringStable) {
  Result<FtExpr> a = ParseFtExpr("\"XML\"   and   \"streaming\"");
  Result<FtExpr> b = ParseFtExpr("xml and Streaming");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ToString(), b->ToString());
  EXPECT_TRUE(*a == *b);
}

TEST(FtExprTest, RejectsMalformed) {
  EXPECT_FALSE(ParseFtExpr("").ok());
  EXPECT_FALSE(ParseFtExpr("\"unterminated").ok());
  EXPECT_FALSE(ParseFtExpr("(a and b").ok());
  EXPECT_FALSE(ParseFtExpr("a and").ok());
  EXPECT_FALSE(ParseFtExpr("a ) b").ok());
}

TEST(FtExprTest, PositiveTermsSkipNegated) {
  Result<FtExpr> e = ParseFtExpr("gold and not silver");
  ASSERT_TRUE(e.ok());
  std::vector<std::string> terms = e->PositiveTerms();
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0], "gold");
}

// --- Inverted index + engine --------------------------------------------

class IrEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    corpus_ = testing_util::CorpusFromXml({
        R"(<doc><sec><para>gold ring with gold band</para>
             <para>silver ring</para></sec>
             <sec><para>iron gate</para></sec></doc>)",
        R"(<doc><sec><para>gold coin</para></sec></doc>)",
    });
    engine_ = std::make_unique<IrEngine>(corpus_.get());
  }

  NodeRef Ref(DocId d, NodeId n) { return NodeRef{d, n}; }

  std::unique_ptr<Corpus> corpus_;
  std::unique_ptr<IrEngine> engine_;
};

TEST_F(IrEngineTest, IndexFindsTerms) {
  const InvertedIndex& idx = engine_->index();
  ASSERT_NE(idx.Find("gold"), nullptr);
  ASSERT_NE(idx.Find("silver"), nullptr);
  EXPECT_EQ(idx.Find("zeppelin"), nullptr);
  // "gold" occurs directly in three paragraphs (doc0 para1, doc1 para).
  EXPECT_EQ(idx.Find("gold")->postings.size(), 2u);
  EXPECT_EQ(idx.Find("gold")->postings[0].tf, 2u);
}

TEST_F(IrEngineTest, SubtreeTermFrequency) {
  const InvertedIndex& idx = engine_->index();
  // doc 0: node 0=doc, 1=sec, 2=para(gold x2), 3=para(silver), 4=sec,
  // 5=para(iron).
  EXPECT_EQ(testing_util::SubtreeTermFrequency(idx, "gold", Ref(0, 0)), 2u);
  EXPECT_EQ(testing_util::SubtreeTermFrequency(idx, "gold", Ref(0, 2)), 2u);
  EXPECT_EQ(testing_util::SubtreeTermFrequency(idx, "gold", Ref(0, 4)), 0u);
  EXPECT_EQ(testing_util::SubtreeTermFrequency(idx, "ring", Ref(0, 1)), 2u);
}

TEST_F(IrEngineTest, SatisfyingSetIsAncestorClosed) {
  Result<FtExpr> e = ParseFtExpr("gold");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  // doc0: para(2) + its ancestors sec(1), doc(0); doc1: para(2), sec(1),
  // doc(0).
  EXPECT_TRUE(r->Satisfies(Ref(0, 0)));
  EXPECT_TRUE(r->Satisfies(Ref(0, 1)));
  EXPECT_TRUE(r->Satisfies(Ref(0, 2)));
  EXPECT_FALSE(r->Satisfies(Ref(0, 3)));
  EXPECT_FALSE(r->Satisfies(Ref(0, 4)));
  EXPECT_TRUE(r->Satisfies(Ref(1, 0)));
}

TEST_F(IrEngineTest, MostSpecificAreDeepest) {
  Result<FtExpr> e = ParseFtExpr("gold");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  ASSERT_EQ(r->most_specific().size(), 2u);
  EXPECT_EQ(r->most_specific()[0].node, Ref(0, 2));
  EXPECT_EQ(r->most_specific()[1].node, Ref(1, 2));
}

TEST_F(IrEngineTest, ScoresNormalizedAndOrdered) {
  Result<FtExpr> e = ParseFtExpr("gold");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  double best = 0;
  for (const ScoredNode& s : r->most_specific()) {
    EXPECT_GE(s.score, 0.0);
    EXPECT_LE(s.score, 1.0);
    best = std::max(best, s.score);
  }
  EXPECT_DOUBLE_EQ(best, 1.0);
  // tf=2 beats tf=1.
  EXPECT_GT(r->most_specific()[0].score, r->most_specific()[1].score);
}

TEST_F(IrEngineTest, AndSemantics) {
  Result<FtExpr> e = ParseFtExpr("gold and silver");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  // Only doc0's first sec (and doc0 root) contain both.
  EXPECT_TRUE(r->Satisfies(Ref(0, 1)));
  EXPECT_TRUE(r->Satisfies(Ref(0, 0)));
  EXPECT_FALSE(r->Satisfies(Ref(0, 2)));
  EXPECT_FALSE(r->Satisfies(Ref(1, 0)));
}

TEST_F(IrEngineTest, OrSemantics) {
  Result<FtExpr> e = ParseFtExpr("silver or iron");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  EXPECT_TRUE(r->Satisfies(Ref(0, 3)));
  EXPECT_TRUE(r->Satisfies(Ref(0, 5)));
  EXPECT_FALSE(r->Satisfies(Ref(1, 2)));
}

TEST_F(IrEngineTest, NotSemantics) {
  Result<FtExpr> e = ParseFtExpr("gold and not silver");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  // doc0 root contains silver -> excluded; doc0 para(2) qualifies.
  EXPECT_FALSE(r->Satisfies(Ref(0, 0)));
  EXPECT_TRUE(r->Satisfies(Ref(0, 2)));
  EXPECT_TRUE(r->Satisfies(Ref(1, 0)));
}

TEST_F(IrEngineTest, PhraseSemantics) {
  Result<FtExpr> e = ParseFtExpr("\"gold ring\"");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  EXPECT_TRUE(r->Satisfies(Ref(0, 2)));
  EXPECT_FALSE(r->Satisfies(Ref(0, 3)));  // "silver ring"
  EXPECT_FALSE(r->Satisfies(Ref(1, 2)));  // "gold coin"
  // "gold band" is not consecutive in "gold ring with gold band"? It is:
  // positions ... actually "gold band" IS consecutive (gold@3, band@4).
  Result<FtExpr> e2 = ParseFtExpr("\"gold band\"");
  ASSERT_TRUE(e2.ok());
  EXPECT_TRUE(engine_->Evaluate(*e2)->Satisfies(Ref(0, 2)));
  Result<FtExpr> e3 = ParseFtExpr("\"ring gold\"");
  ASSERT_TRUE(e3.ok());
  EXPECT_FALSE(engine_->Evaluate(*e3)->Satisfies(Ref(0, 2)));
}

TEST_F(IrEngineTest, BestScoreWithin) {
  Result<FtExpr> e = ParseFtExpr("gold");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  EXPECT_DOUBLE_EQ(r->BestScoreWithin(Ref(0, 0)), 1.0);
  EXPECT_DOUBLE_EQ(r->BestScoreWithin(Ref(0, 4)), 0.0);
  EXPECT_GT(r->BestScoreWithin(Ref(1, 0)), 0.0);
  EXPECT_LT(r->BestScoreWithin(Ref(1, 0)), 1.0);
}

TEST_F(IrEngineTest, CountWithTag) {
  Result<FtExpr> e = ParseFtExpr("gold");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  const TagDict& dict = std::as_const(*corpus_).tags();
  EXPECT_EQ(r->CountWithTag(dict.Lookup("para")), 2u);
  EXPECT_EQ(r->CountWithTag(dict.Lookup("sec")), 2u);
  EXPECT_EQ(r->CountWithTag(dict.Lookup("doc")), 2u);
}

TEST_F(IrEngineTest, EvaluationIsCached) {
  Result<FtExpr> e1 = ParseFtExpr("gold");
  Result<FtExpr> e2 = ParseFtExpr("GOLD");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(engine_->Evaluate(*e1), engine_->Evaluate(*e2));
}

TEST_F(IrEngineTest, UnknownTermMatchesNothing) {
  Result<FtExpr> e = ParseFtExpr("zeppelin");
  ASSERT_TRUE(e.ok());
  const std::shared_ptr<const ContainsResult> r = engine_->Evaluate(*e);
  EXPECT_EQ(r->count(), 0u);
  EXPECT_TRUE(r->most_specific().empty());
  EXPECT_DOUBLE_EQ(r->BestScoreWithin(Ref(0, 0)), 0.0);
}

// Results carry no lock: once published they are read-only, so workers
// may probe one result while others evaluate (and cache) further
// expressions. Every probe must match a serially built engine's answer.
TEST_F(IrEngineTest, ConcurrentEvaluateAndProbe) {
  const std::vector<std::string> words = {"gold", "silver", "iron", "ring",
                                          "coin"};
  std::vector<FtExpr> exprs;
  for (const std::string& a : words) {
    exprs.push_back(FtExpr::Term(a));
    exprs.push_back(FtExpr::Not(FtExpr::Term(a)));
    for (const std::string& b : words) {
      if (a == b) continue;
      exprs.push_back(FtExpr::And(FtExpr::Term(a), FtExpr::Term(b)));
      exprs.push_back(
          FtExpr::Or(FtExpr::Term(a), FtExpr::Not(FtExpr::Term(b))));
      exprs.push_back(FtExpr::Phrase({a, b}));
    }
  }
  IrEngine serial(corpus_.get());
  std::vector<std::shared_ptr<const ContainsResult>> want;
  for (const FtExpr& e : exprs) want.push_back(serial.Evaluate(e));

  const size_t tags = std::as_const(*corpus_).tags().size();
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> workers;
  for (size_t t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (size_t round = 0; round < 3; ++round) {
        for (size_t i = 0; i < exprs.size(); ++i) {
          // Each worker walks the expressions from its own offset, so
          // first evaluations (misses) overlap with hits.
          const size_t x = (i * 7 + t * 11) % exprs.size();
          const std::shared_ptr<const ContainsResult> got =
              engine_->Evaluate(exprs[x]);
          const ContainsResult& w = *want[x];
          size_t bad = got->count() != w.count();
          for (DocId d = 0; d < corpus_->size(); ++d) {
            for (NodeId n = 0; n < corpus_->DocSize(d); ++n) {
              bad += got->Satisfies(Ref(d, n)) != w.Satisfies(Ref(d, n));
              bad += got->BestScoreWithin(Ref(d, n)) !=
                     w.BestScoreWithin(Ref(d, n));
            }
          }
          for (TagId tag = 0; tag < tags; ++tag) {
            bad += got->CountWithTag(tag) != w.CountWithTag(tag);
          }
          mismatches += bad;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0u);
  std::set<std::string> keys;
  for (const FtExpr& e : exprs) keys.insert(e.ToString());
  EXPECT_EQ(engine_->GetCacheStats().entries, keys.size());
}

TEST_F(IrEngineTest, StemmedQueryMatchesInflectedText) {
  std::unique_ptr<Corpus> corpus = testing_util::CorpusFromXml(
      {"<d><p>streaming algorithms for queries</p></d>"});
  IrEngine engine(corpus.get());
  Result<FtExpr> e = ParseFtExpr("\"stream\" and \"algorithm\" and query");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(engine.Evaluate(*e)->Satisfies(NodeRef{0, 0}));
}

// --- Property: contains results against a brute-force oracle ------------

/// Random FTExp over RandomDocument's vocabulary plus one word no
/// document holds, so empty results occur.
FtExpr RandomFtExpr(Rng* rng, int depth) {
  static constexpr const char* kWords[] = {"red",  "green", "blue", "gold",
                                           "iron", "salt",  "zinc"};
  auto word = [&] { return std::string(kWords[rng->Uniform(7)]); };
  switch (rng->Uniform(depth >= 2 ? 3 : 6)) {
    case 0:
    case 1:
      return FtExpr::Term(word());
    case 2:
      return FtExpr::Phrase({word(), word()});
    case 3:
      return FtExpr::And(RandomFtExpr(rng, depth + 1),
                         RandomFtExpr(rng, depth + 1));
    case 4:
      return FtExpr::Or(RandomFtExpr(rng, depth + 1),
                        RandomFtExpr(rng, depth + 1));
    default:
      return FtExpr::Not(RandomFtExpr(rng, depth + 1));
  }
}

/// True iff one element's own tokens satisfy the term or phrase `e`.
bool ElementMatches(const std::vector<PositionedToken>& tokens,
                    const FtExpr& e) {
  const std::vector<std::string> words =
      e.kind() == FtKind::kTerm ? std::vector<std::string>{e.term()}
                                : e.phrase();
  for (const PositionedToken& first : tokens) {
    if (first.text != words[0]) continue;
    bool run = true;
    for (size_t i = 1; i < words.size() && run; ++i) {
      run = std::any_of(tokens.begin(), tokens.end(),
                        [&](const PositionedToken& t) {
                          return t.text == words[i] &&
                                 t.position == first.position + i;
                        });
    }
    if (run) return true;
  }
  return false;
}

/// Subtree semantics checked directly: does the subtree of `n` in `doc`
/// satisfy `e`? `tokens[m]` are node m's own tokens.
bool SubtreeSatisfies(const Document& doc,
                      const std::vector<std::vector<PositionedToken>>& tokens,
                      NodeId n, const FtExpr& e) {
  switch (e.kind()) {
    case FtKind::kAnd:
      return SubtreeSatisfies(doc, tokens, n, e.children()[0]) &&
             SubtreeSatisfies(doc, tokens, n, e.children()[1]);
    case FtKind::kOr:
      return SubtreeSatisfies(doc, tokens, n, e.children()[0]) ||
             SubtreeSatisfies(doc, tokens, n, e.children()[1]);
    case FtKind::kNot:
      return !SubtreeSatisfies(doc, tokens, n, e.children()[0]);
    default:
      for (NodeId m = n; m < doc.size() && doc.span(m).start < doc.span(n).end;
           ++m) {
        if (ElementMatches(tokens[m], e)) return true;
      }
      return false;
  }
}

/// Reference scores: per most-specific node, per positive term in order,
/// the index's subtree term frequency; then the batch normalized to
/// [0, 1].
std::vector<double> PerNodeScores(const InvertedIndex& index,
                                  const FtExpr& e,
                                  const std::vector<ScoredNode>& specific) {
  std::vector<double> scores;
  double max_score = 0.0;
  for (const ScoredNode& s : specific) {
    double score = 0.0;
    for (const std::string& t : e.PositiveTerms()) {
      const uint64_t tf = testing_util::SubtreeTermFrequency(index, t, s.node);
      if (tf > 0) {
        score += (1.0 + std::log(static_cast<double>(tf))) * index.Idf(t);
      }
    }
    scores.push_back(score);
    max_score = std::max(max_score, score);
  }
  for (double& score : scores) score = max_score > 0.0 ? score / max_score : 1.0;
  return scores;
}

TEST(IrPropertyTest, ContainsMatchesBruteForceAndPackedMode) {
  Rng rng(15);
  const TokenizerOptions opts;
  const std::string path = ::testing::TempDir() + "/ir_property.fxp";
  size_t empty = 0;
  size_t multi_doc = 0;
  size_t nested = 0;
  for (int round = 0; round < 30; ++round) {
    Corpus corpus;
    const size_t docs = 1 + rng.Uniform(4);
    for (size_t d = 0; d < docs; ++d) {
      corpus.Add(testing_util::RandomDocument(&rng, corpus.tags(), 40));
    }
    std::vector<std::vector<std::vector<PositionedToken>>> tokens(docs);
    for (DocId d = 0; d < docs; ++d) {
      for (NodeId n = 0; n < corpus.doc(d).size(); ++n) {
        tokens[d].push_back(
            TokenizeWithPositions(corpus.doc(d).content(n).text, opts));
      }
    }
    ASSERT_TRUE(storage::WritePackedCorpus(corpus, opts, path).ok());
    Result<std::shared_ptr<storage::StorageReader>> reader =
        storage::StorageReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    Corpus packed;
    ASSERT_TRUE((*reader)->LoadTags(packed.tags()).ok());
    packed.AttachBacking(*reader);
    IrEngine memory_engine(&corpus, opts);
    IrEngine packed_engine(&packed, opts, *reader);

    for (int q = 0; q < 12; ++q) {
      const FtExpr e = RandomFtExpr(&rng, 0);
      SCOPED_TRACE("round " + std::to_string(round) + ": " + e.ToString());
      const std::shared_ptr<const ContainsResult> r =
          memory_engine.Evaluate(e);

      std::vector<NodeRef> expect;
      std::vector<std::vector<bool>> oracle(docs);
      std::vector<size_t> expect_tags(std::as_const(corpus).tags().size(), 0);
      for (DocId d = 0; d < docs; ++d) {
        for (NodeId n = 0; n < corpus.doc(d).size(); ++n) {
          oracle[d].push_back(SubtreeSatisfies(corpus.doc(d), tokens[d], n, e));
          if (oracle[d].back()) {
            expect.push_back(NodeRef{d, n});
            ++expect_tags[corpus.doc(d).tag(n)];
          }
        }
      }
      // The satisfying set, its size and its per-tag counts, against the
      // oracle; in packed mode too.
      auto check_set = [&](const ContainsResult& res, const char* mode) {
        SCOPED_TRACE(mode);
        for (DocId d = 0; d < docs; ++d) {
          for (NodeId n = 0; n < corpus.doc(d).size(); ++n) {
            ASSERT_EQ(res.Satisfies(NodeRef{d, n}), oracle[d][n])
                << "doc " << d << " node " << n;
          }
        }
        ASSERT_EQ(res.count(), expect.size());
        for (TagId t = 0; t < expect_tags.size(); ++t) {
          EXPECT_EQ(res.CountWithTag(t), expect_tags[t]) << "tag " << t;
        }
        EXPECT_EQ(res.CountWithTag(static_cast<TagId>(expect_tags.size())),
                  0u);
        EXPECT_EQ(res.CountWithTag(kInvalidTag), 0u);
      };
      check_set(*r, "memory");

      const std::vector<std::string> terms = e.PositiveTerms();
      std::vector<NodeRef> expect_specific;
      for (NodeRef ref : expect) {
        const bool has_satisfying_descendant = std::any_of(
            expect.begin(), expect.end(),
            [&](NodeRef other) { return corpus.IsAncestor(ref, other); });
        if (!has_satisfying_descendant) {
          expect_specific.push_back(ref);
        } else if (std::any_of(terms.begin(), terms.end(),
                               [&](const std::string& t) {
                                 return ElementMatches(
                                     tokens[ref.doc][ref.node],
                                     FtExpr::Term(t, opts));
                               })) {
          ++nested;  // a match with another satisfying node under it
        }
      }
      const std::vector<ScoredNode>& specific = r->most_specific();
      ASSERT_EQ(specific.size(), expect_specific.size());
      const std::vector<double> scores =
          PerNodeScores(memory_engine.index(), e, specific);
      for (size_t i = 0; i < specific.size(); ++i) {
        EXPECT_EQ(specific[i].node, expect_specific[i]);
        EXPECT_EQ(specific[i].score, scores[i]) << "node " << i;
      }

      // BestScoreWithin is the max over the most-specific nodes in the
      // context's subtree (itself included), 0 when there are none.
      for (DocId d = 0; d < docs; ++d) {
        const Document& doc = corpus.doc(d);
        for (NodeId n = 0; n < doc.size(); ++n) {
          bool any = false;
          double best = 0.0;
          for (const ScoredNode& s : specific) {
            if (s.node.doc != d || s.node.node < n ||
                doc.span(s.node.node).start >= doc.span(n).end) {
              continue;
            }
            best = any ? std::max(best, s.score) : s.score;
            any = true;
          }
          EXPECT_EQ(r->BestScoreWithin(NodeRef{d, n}), best)
              << "doc " << d << " node " << n;
        }
      }

      const std::shared_ptr<const ContainsResult> p =
          packed_engine.Evaluate(e);
      check_set(*p, "packed");
      ASSERT_EQ(p->most_specific().size(), specific.size());
      for (size_t i = 0; i < specific.size(); ++i) {
        EXPECT_EQ(p->most_specific()[i].node, specific[i].node);
        EXPECT_EQ(p->most_specific()[i].score, specific[i].score);
      }

      empty += expect.empty();
      multi_doc += !expect.empty() && expect.front().doc != expect.back().doc;
    }
  }
  std::remove(path.c_str());
  // The random cases cover what the merge walks must get right.
  EXPECT_GT(empty, 0u);
  EXPECT_GT(multi_doc, 0u);
  EXPECT_GT(nested, 0u);
}

}  // namespace
}  // namespace flexpath
