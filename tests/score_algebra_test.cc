// Flexcheck v2 (DESIGN.md §16): the score-algebra IR, the
// pruning-soundness certifier, and the scheme registry that gates every
// optimization on a certificate.
//
// Three layers of coverage:
//   1. The certifier itself — the three built-ins certify with exactly
//      the directives the engine used to hard-code, and each refutation
//      path (non-monotone key, epsilon ties, opaque terms, malformed
//      algebras) produces its stable FX3xx code.
//   2. The registry — built-ins are pre-installed, Register() refuses
//      uncertifiable algebras with the refuting diagnostics in the
//      error, and the comparator fall-through for custom schemes agrees
//      with the algebra's own denotation.
//   3. The certificate is load-bearing — with certification
//      force-disabled through the test seam (a forged permissive
//      certificate for a provably unsound scheme), the optimized
//      execution path visibly diverges from the conservative run the
//      honest certificate forces.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostic.h"
#include "analysis/score_algebra.h"
#include "common/metrics.h"
#include "core/flexpath.h"
#include "exec/topk.h"
#include "rank/scheme_registry.h"
#include "rank/score.h"

namespace flexpath {
namespace {

// ---------------------------------------------------------------------
// The certifier on the built-ins.
// ---------------------------------------------------------------------

TEST(ScoreAlgebraTest, StructureFirstCertifiesWithAtKStop) {
  const SchemeCertificate cert = CertifyScheme(StructureFirstAlgebra());
  EXPECT_TRUE(cert.certified) << cert.ToJson();
  EXPECT_TRUE(cert.well_formed.holds);
  EXPECT_TRUE(cert.relaxation_monotone.holds);
  EXPECT_TRUE(cert.order_invariant.holds);
  // Exactly the directives the engine hard-coded before flexcheck v2:
  // ss strictly dominates, so stop at K and prune with no ks bonus.
  EXPECT_EQ(cert.stop_rule, DpoStopRule::kAtK);
  EXPECT_TRUE(cert.threshold_pruning);
  EXPECT_EQ(cert.prune_ks_factor, 0.0);
  EXPECT_EQ(cert.expression, "lex(ss, ks)");
}

TEST(ScoreAlgebraTest, KeywordFirstCertifiesButRunsExhaustive) {
  const SchemeCertificate cert = CertifyScheme(KeywordFirstAlgebra());
  EXPECT_TRUE(cert.certified) << cert.ToJson();
  // ks dominates, so no bound on future relaxation rounds is provable:
  // every round runs and threshold pruning is off — again exactly the
  // old hard-coded behavior.
  EXPECT_EQ(cert.stop_rule, DpoStopRule::kExhaustive);
  EXPECT_FALSE(cert.threshold_pruning);
  EXPECT_EQ(cert.expression, "lex(ks, ss)");
}

TEST(ScoreAlgebraTest, CombinedCertifiesWithPenaltyMargin) {
  const SchemeCertificate cert = CertifyScheme(CombinedAlgebra());
  EXPECT_TRUE(cert.certified) << cert.ToJson();
  EXPECT_EQ(cert.stop_rule, DpoStopRule::kPenaltyMargin);
  EXPECT_EQ(cert.stop_margin_factor, 1.0);
  EXPECT_TRUE(cert.threshold_pruning);
  EXPECT_EQ(cert.prune_ks_factor, 1.0);
  EXPECT_EQ(cert.expression, "(ss + ks)");
}

// A certified scheme produces an empty diagnostic report.
TEST(ScoreAlgebraTest, CertifiedSchemesReportNoDiagnostics) {
  for (const SchemeAlgebra& alg :
       {StructureFirstAlgebra(), KeywordFirstAlgebra(), CombinedAlgebra()}) {
    EXPECT_TRUE(CertifyScheme(alg).Report().diagnostics.empty()) << alg.name;
  }
}

// ---------------------------------------------------------------------
// Refutation paths, one stable FX3xx code each.
// ---------------------------------------------------------------------

// "Prefer more relaxed": the primary key decreases in ss, breaking
// Theorem 3 prefix monotonicity — FX301.
TEST(ScoreAlgebraTest, NonMonotoneKeyRefutedWithFx301) {
  SchemeAlgebra inverted;
  inverted.name = "prefer-relaxed";
  inverted.keys.push_back(ScoreExpr::Weighted(-1.0, ScoreExpr::Ss()));
  inverted.keys.push_back(ScoreExpr::Ks());
  const SchemeCertificate cert = CertifyScheme(inverted);
  EXPECT_FALSE(cert.certified);
  EXPECT_FALSE(cert.relaxation_monotone.holds);
  EXPECT_EQ(cert.relaxation_monotone.code, kDiagSchemeNotMonotone);
  // Monotonicity is independent of the merge-order properties.
  EXPECT_TRUE(cert.order_invariant.holds);
  // Conservative directives: nothing is licensed.
  EXPECT_EQ(cert.stop_rule, DpoStopRule::kExhaustive);
  EXPECT_FALSE(cert.threshold_pruning);
}

// A penalty-weighted scheme IS monotone: kPenalty evaluates as -ss, so
// Weighted(-1, Penalty) has d/d(ss) = +1.
TEST(ScoreAlgebraTest, NegatedPenaltyTermIsMonotone) {
  SchemeAlgebra alg;
  alg.name = "penalty-averse";
  alg.keys.push_back(ScoreExpr::Sum(
      {ScoreExpr::Weighted(-1.0, ScoreExpr::Penalty()), ScoreExpr::Ks()}));
  const SchemeCertificate cert = CertifyScheme(alg);
  EXPECT_TRUE(cert.certified) << cert.ToJson();
  EXPECT_EQ(cert.stop_rule, DpoStopRule::kPenaltyMargin);
}

// Epsilon tie-banding is not transitive, so merge order would leak into
// the answer list — FX302.
TEST(ScoreAlgebraTest, EpsilonTiesRefutedWithFx302) {
  SchemeAlgebra banded = CombinedAlgebra();
  banded.name = "combined-banded";
  banded.tie_epsilon = 0.01;
  const SchemeCertificate cert = CertifyScheme(banded);
  EXPECT_FALSE(cert.certified);
  EXPECT_TRUE(cert.relaxation_monotone.holds);
  EXPECT_FALSE(cert.order_invariant.holds);
  EXPECT_EQ(cert.order_invariant.code, kDiagSchemeNotOrderInvariant);
}

// An opaque term (external UDF) refutes both properties.
TEST(ScoreAlgebraTest, OpaqueTermRefutesEverything) {
  SchemeAlgebra udf;
  udf.name = "udf-scored";
  udf.keys.push_back(
      ScoreExpr::Sum({ScoreExpr::Ss(), ScoreExpr::Opaque("ml_model")}));
  const SchemeCertificate cert = CertifyScheme(udf);
  EXPECT_FALSE(cert.certified);
  EXPECT_EQ(cert.relaxation_monotone.code, kDiagSchemeNotMonotone);
  EXPECT_EQ(cert.order_invariant.code, kDiagSchemeNotOrderInvariant);
  // Two refuted properties, two diagnostics.
  EXPECT_EQ(cert.Report().diagnostics.size(), 2u);
}

// Malformed algebras short-circuit: FX305 alone, nothing else evaluated.
TEST(ScoreAlgebraTest, MalformedAlgebrasReportFx305Alone) {
  SchemeAlgebra empty;
  empty.name = "no-keys";
  {
    const SchemeCertificate cert = CertifyScheme(empty);
    EXPECT_FALSE(cert.certified);
    EXPECT_EQ(cert.well_formed.code, kDiagSchemeMalformed);
    ASSERT_EQ(cert.Report().diagnostics.size(), 1u);
    EXPECT_EQ(cert.Report().diagnostics[0].code, kDiagSchemeMalformed);
  }
  SchemeAlgebra nan_weight;
  nan_weight.name = "nan-weight";
  nan_weight.keys.push_back(ScoreExpr::Weighted(
      std::numeric_limits<double>::quiet_NaN(), ScoreExpr::Ss()));
  EXPECT_EQ(CertifyScheme(nan_weight).well_formed.code, kDiagSchemeMalformed);

  // Arity violations are only reachable by hand-building nodes (the
  // factories enforce arity), but the certifier must still catch them.
  SchemeAlgebra bad_arity;
  bad_arity.name = "bad-arity";
  ScoreExpr weighted;
  weighted.kind = ScoreExpr::Kind::kWeighted;
  weighted.value = 1.0;  // No operand.
  bad_arity.keys.push_back(weighted);
  EXPECT_EQ(CertifyScheme(bad_arity).well_formed.code, kDiagSchemeMalformed);
}

// ---------------------------------------------------------------------
// Certificate serialization.
// ---------------------------------------------------------------------

TEST(ScoreAlgebraTest, CertificateJsonCarriesVerdictsAndDirectives) {
  const std::string json = CertifyScheme(CombinedAlgebra()).ToJson();
  EXPECT_NE(json.find("\"scheme\":\"combined\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"certified\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"relaxation_monotone\""), std::string::npos);
  EXPECT_NE(json.find("\"stop_rule\":\"penalty-margin\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"threshold_pruning\":true"), std::string::npos);

  const std::string all = FlexPath::SchemeCertificatesJson();
  EXPECT_EQ(all.front(), '[');
  EXPECT_NE(all.find("\"structure-first\""), std::string::npos);
  EXPECT_NE(all.find("\"keyword-first\""), std::string::npos);
  EXPECT_NE(all.find("\"combined\""), std::string::npos);
}

// ---------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------

TEST(ScoreAlgebraTest, BuiltinsArePreRegisteredAndCertified) {
  SchemeRegistry& reg = SchemeRegistry::Global();
  for (RankScheme s : {RankScheme::kStructureFirst, RankScheme::kKeywordFirst,
                       RankScheme::kCombined}) {
    const SchemeCertificate* cert = reg.Certificate(s);
    ASSERT_NE(cert, nullptr);
    EXPECT_TRUE(cert->certified);
    ASSERT_NE(reg.Name(s), nullptr);
    EXPECT_STREQ(reg.Name(s), RankSchemeName(s));
    ASSERT_TRUE(reg.ByName(reg.Name(s)).has_value());
    EXPECT_EQ(*reg.ByName(reg.Name(s)), s);
  }
  EXPECT_EQ(reg.Certificate(static_cast<RankScheme>(200)), nullptr);
}

TEST(ScoreAlgebraTest, RegisterRefusesUncertifiableSchemesWithFxCodes) {
  SchemeAlgebra inverted;
  inverted.name = "prefer-relaxed-register";
  inverted.keys.push_back(ScoreExpr::Weighted(-1.0, ScoreExpr::Ss()));
  Result<RankScheme> r = SchemeRegistry::Global().Register(inverted);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find(kDiagSchemeNotMonotone),
            std::string::npos)
      << r.status().ToString();
  // The refusal really kept it out.
  EXPECT_FALSE(
      SchemeRegistry::Global().ByName("prefer-relaxed-register").has_value());

  SchemeAlgebra anonymous;
  anonymous.keys.push_back(ScoreExpr::Ss());
  EXPECT_FALSE(SchemeRegistry::Global().Register(anonymous).ok());

  SchemeAlgebra duplicate = CombinedAlgebra();  // Name already taken.
  EXPECT_FALSE(SchemeRegistry::Global().Register(duplicate).ok());
}

TEST(ScoreAlgebraTest, RegisteredCustomSchemeRanksByItsAlgebra) {
  SchemeAlgebra half = CombinedAlgebra();
  half.name = "half-keyword";
  half.keys.clear();
  half.keys.push_back(ScoreExpr::Sum(
      {ScoreExpr::Ss(), ScoreExpr::Weighted(0.5, ScoreExpr::Ks())}));
  Result<RankScheme> r = SchemeRegistry::Global().Register(half);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const RankScheme scheme = *r;
  EXPECT_GE(static_cast<uint8_t>(scheme), 3u);
  EXPECT_STREQ(RankSchemeName(scheme), "half-keyword");

  // The engine comparator (registry fall-through) and the algebra's own
  // denotation agree on a grid of score pairs.
  const double grid[] = {0.0, 0.25, 0.5, 1.0, 2.0};
  const SchemeAlgebra* alg = SchemeRegistry::Global().Algebra(scheme);
  ASSERT_NE(alg, nullptr);
  for (double a_ss : grid) {
    for (double a_ks : grid) {
      for (double b_ss : grid) {
        for (double b_ks : grid) {
          const AnswerScore a{a_ss, a_ks};
          const AnswerScore b{b_ss, b_ks};
          EXPECT_EQ(RanksBefore(a, b, scheme),
                    alg->RanksBefore(a_ss, a_ks, b_ss, b_ks));
        }
      }
    }
  }
}

// The built-in fast path in RanksBefore must agree with the built-ins'
// algebra denotations (pinning the hand-inlined comparisons to the IR).
TEST(ScoreAlgebraTest, BuiltinComparatorsMatchTheirAlgebras) {
  const struct {
    RankScheme scheme;
    SchemeAlgebra algebra;
  } cases[] = {
      {RankScheme::kStructureFirst, StructureFirstAlgebra()},
      {RankScheme::kKeywordFirst, KeywordFirstAlgebra()},
      {RankScheme::kCombined, CombinedAlgebra()},
  };
  const double grid[] = {0.0, 0.5, 1.0, 1.5, 3.0};
  for (const auto& c : cases) {
    for (double a_ss : grid) {
      for (double a_ks : grid) {
        for (double b_ss : grid) {
          for (double b_ks : grid) {
            const AnswerScore a{a_ss, a_ks};
            const AnswerScore b{b_ss, b_ks};
            EXPECT_EQ(RanksBefore(a, b, c.scheme),
                      c.algebra.RanksBefore(a_ss, a_ks, b_ss, b_ks))
                << c.algebra.name;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// The certificate gates execution.
// ---------------------------------------------------------------------

class CertifiedExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One exact match for //article[./section[./paragraph]] and two
    // articles that only match after relaxation (section without a
    // paragraph / bare article): under an inverted "prefer more
    // relaxed" scheme the relaxed answers outrank the exact one.
    const char* docs[] = {
        R"(<article><section><paragraph>exact match</paragraph>
           </section></article>)",
        R"(<article><section>relaxed: no paragraph</section></article>)",
        R"(<article>very relaxed: no section</article>)",
    };
    for (const char* xml : docs) {
      Result<DocId> id = fp_.AddDocumentXml(xml);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
    }
    ASSERT_TRUE(fp_.Build().ok());
    Result<Tpq> q = fp_.Parse("//article[./section[./paragraph]]");
    ASSERT_TRUE(q.ok()) << q.status().ToString();
    q_ = *std::move(q);
  }

  FlexPath fp_;
  Tpq q_;
};

TEST_F(CertifiedExecutionTest, UnregisteredSchemeIsRejectedUpFront) {
  TopKOptions opts;
  opts.k = 3;
  opts.num_threads = 1;
  opts.scheme = static_cast<RankScheme>(29);  // Never registered.
  Result<TopKResult> r = fp_.QueryTpq(q_, opts, Algorithm::kDpo);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("register"), std::string::npos)
      << r.status().ToString();
}

TEST_F(CertifiedExecutionTest, FlexPathCertifySchemeSurfacesCertificates) {
  Result<SchemeCertificate> cert = fp_.CertifyScheme(RankScheme::kCombined);
  ASSERT_TRUE(cert.ok());
  EXPECT_TRUE(cert->certified);
  EXPECT_EQ(cert->scheme, "combined");
  EXPECT_FALSE(fp_.CertifyScheme(static_cast<RankScheme>(30)).ok());
}

// The load-bearing test: the certifier's refusal is what keeps the
// optimized paths sound. Force-disable certification through the test
// seam — forge a permissive certificate (at-K stopping) for a provably
// non-monotone scheme — and the DPO run visibly diverges from the
// conservative exhaustive run the honest (refuting) certificate forces.
TEST_F(CertifiedExecutionTest, ForgedCertificateMakesPrunedRunDiverge) {
  SchemeAlgebra inverted;
  inverted.name = "prefer-relaxed-exec";
  inverted.keys.push_back(ScoreExpr::Weighted(-1.0, ScoreExpr::Ss()));
  inverted.keys.push_back(ScoreExpr::Ks());

  // The front door refuses this scheme outright.
  ASSERT_FALSE(SchemeRegistry::Global().Register(inverted).ok());

  // Install it with its honest certificate (monotonicity refuted, so
  // directives are conservative: exhaustive, no pruning). This is the
  // ground truth: every relaxation round runs, and the most-relaxed
  // answer wins under the inverted order.
  const SchemeCertificate honest = CertifyScheme(inverted);
  ASSERT_EQ(honest.stop_rule, DpoStopRule::kExhaustive);
  ASSERT_FALSE(honest.threshold_pruning);
  const RankScheme scheme =
      SchemeRegistry::Global().RegisterForTest(inverted, honest);

  TopKOptions opts;
  opts.k = 1;
  opts.num_threads = 1;
  opts.scheme = scheme;
  Result<TopKResult> truth = fp_.QueryTpq(q_, opts, Algorithm::kDpo);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ASSERT_EQ(truth->answers.size(), 1u);

  // Forge the certificate the certifier refused to issue: claim the
  // scheme is monotone and licenses at-K stopping (the structure-first
  // directive). DPO now stops at the first round that fills K.
  SchemeCertificate forged = honest;
  forged.relaxation_monotone = PropertyVerdict{true, "", "forged by test"};
  forged.certified = true;
  forged.stop_rule = DpoStopRule::kAtK;
  SchemeRegistry::Global().ReplaceCertificateForTest(scheme, forged);
  Result<TopKResult> pruned = fp_.QueryTpq(q_, opts, Algorithm::kDpo);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  ASSERT_EQ(pruned->answers.size(), 1u);

  // Divergence: the exhaustive run surfaces a more-relaxed (lower-ss)
  // answer that the forged early stop never reaches.
  EXPECT_LT(truth->answers[0].score.ss, pruned->answers[0].score.ss);
  EXPECT_LT(truth->relaxations_used, pruned->relaxations_used + 100);
  EXPECT_NE(AnswersDigest(truth->answers),
            AnswersDigest(pruned->answers));

  // Restore the honest certificate — the registry is process-wide.
  SchemeRegistry::Global().ReplaceCertificateForTest(scheme, honest);
}

}  // namespace
}  // namespace flexpath
