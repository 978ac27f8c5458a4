#ifndef FLEXPATH_ANALYSIS_SCORE_ALGEBRA_H_
#define FLEXPATH_ANALYSIS_SCORE_ALGEBRA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostic.h"

namespace flexpath {

/// Expression IR for rank-scheme scoring functions (flexcheck v2,
/// DESIGN.md §16). A scheme is expressed as a lexicographic list of
/// scalar keys over an answer's two scores; the certifier below proves
/// or refutes, from the expression structure alone, the properties each
/// optimization in the engine relies on. The IR is deliberately small:
/// it has to be rich enough for Section 4.3.2's schemes plus the
/// preference-weighted families of ROADMAP item 5, and poor enough that
/// the proofs are decidable by interval analysis.
struct ScoreExpr {
  enum class Kind : uint8_t {
    kStructural,  ///< The answer's structural score ss (Section 4.3.2).
    kKeyword,     ///< The answer's keyword score ks (sum of IR scores).
    kPenalty,     ///< The accumulated relaxation penalty. Evaluates as
                  ///< -ss: the true value is base - ss, but the base
                  ///< structural score is constant across the answers of
                  ///< one query, so dropping it is rank-invariant.
    kConst,       ///< A constant (`value`).
    kWeighted,    ///< value * children[0].
    kSum,         ///< children[0] + children[1] + ...
    kMin,         ///< min over children.
    kMax,         ///< max over children.
    kOpaque,      ///< A black-box term (e.g. an external UDF). Nothing
                  ///< is provable about it; every property is refuted.
  };

  Kind kind = Kind::kConst;
  double value = 0.0;  ///< kConst: the constant. kWeighted: the weight.
  std::string label;   ///< kOpaque: a diagnostic name for the term.
  std::vector<ScoreExpr> children;

  // Factories (the only supported way to build expressions).
  static ScoreExpr Ss();
  static ScoreExpr Ks();
  static ScoreExpr Penalty();
  static ScoreExpr Const(double v);
  static ScoreExpr Weighted(double w, ScoreExpr e);
  static ScoreExpr Sum(std::vector<ScoreExpr> es);
  static ScoreExpr Min(std::vector<ScoreExpr> es);
  static ScoreExpr Max(std::vector<ScoreExpr> es);
  static ScoreExpr Opaque(std::string label);

  /// Evaluates the expression for an answer with scores (ss, ks).
  /// kPenalty evaluates as -ss (see above); kOpaque evaluates as 0 —
  /// opaque terms never certify, so they reach evaluation only through
  /// the test seam.
  double Eval(double ss, double ks) const;

  /// Human-readable rendering, e.g. "(ss + ks)" or "0.5*ks".
  std::string ToString() const;
};

/// A rank scheme expressed in the algebra: an ordered list of keys,
/// compared lexicographically with higher key values ranking first.
/// `tie_epsilon` > 0 widens key ties to |a-b| <= epsilon — supported by
/// the comparator but refused by the certifier (epsilon bands are not
/// transitive, so merge order would leak into the answer list).
struct SchemeAlgebra {
  std::string name;
  std::vector<ScoreExpr> keys;
  double tie_epsilon = 0.0;

  /// The comparator the algebra denotes: true when `a` ranks strictly
  /// before `b`. With tie_epsilon == 0 this is a strict weak ordering.
  bool RanksBefore(double a_ss, double a_ks, double b_ss, double b_ks) const;

  /// Rendering of the key list, e.g. "lex(ss, ks)".
  std::string ToString() const;
};

/// The three built-in Section 4.3.2 schemes re-expressed in the algebra.
/// Order and names match RankScheme / RankSchemeName.
SchemeAlgebra StructureFirstAlgebra();
SchemeAlgebra KeywordFirstAlgebra();
SchemeAlgebra CombinedAlgebra();

/// The DPO stopping rule a certificate licenses (consumed by
/// TopKProcessor::RunDpo / RunEncoded):
///  - kAtK:           the primary key is strictly increasing in ss and
///                    independent of ks, so relaxation rounds only ever
///                    produce worse answers — stop as soon as K are held.
///  - kPenaltyMargin: the primary key is affine in (ss, ks) with positive
///                    ss coefficient, so a round is unbeatable once the
///                    best achievable key (base - round penalty plus
///                    stop_margin_factor x the maximum keyword mass)
///                    falls below the current K-th answer.
///  - kExhaustive:    no bound on future rounds is provable (e.g. the
///                    keyword-first scheme); every relaxation runs.
enum class DpoStopRule : uint8_t {
  kAtK = 0,
  kPenaltyMargin = 1,
  kExhaustive = 2,
};

const char* DpoStopRuleName(DpoStopRule rule);

/// One certified (or refuted) property. `code` is the stable FX3xx
/// diagnostic refuting the property, empty when it holds; `detail` is
/// the proof sketch or the counterexample condition.
struct PropertyVerdict {
  bool holds = false;
  std::string code;
  std::string detail;
};

/// The machine-readable output of the certifier: two property verdicts
/// (plus well-formedness), and the optimization directives they license.
/// Every optimization site consults a directive instead of switching on
/// the scheme by name:
///  - relaxation_monotone (FX301, Theorem 3)  -> DPO stopping rules,
///    static_prune, and SSO/Hybrid threshold pruning are meaningful;
///  - order_invariant (FX302)                 -> parallel / serial-order
///    merges may reorder work without changing the answer list.
struct SchemeCertificate {
  std::string scheme;      ///< SchemeAlgebra::name.
  std::string expression;  ///< SchemeAlgebra::ToString().

  PropertyVerdict well_formed;          ///< FX305 when refuted.
  PropertyVerdict relaxation_monotone;  ///< FX301 when refuted.
  PropertyVerdict order_invariant;      ///< FX302 when refuted.

  /// True iff every property above holds. SchemeRegistry::Register
  /// refuses algebras that do not certify.
  bool certified = false;

  // Directives derived from the proof (all conservative defaults when
  // the relevant property is refuted).
  bool threshold_pruning = false;   ///< Score-threshold pruning is sound.
  double prune_ks_factor = 0.0;     ///< Optimistic ks bonus per unit of
                                    ///< the plan's max keyword mass used
                                    ///< in pruning bounds (0 for
                                    ///< structure-first, 1 for combined).
  DpoStopRule stop_rule = DpoStopRule::kExhaustive;
  double stop_margin_factor = 0.0;  ///< kPenaltyMargin: margin per unit
                                    ///< of maximum keyword mass.

  /// One JSON object with the verdicts and directives (stable schema;
  /// uploaded as a CI artifact and served by the CLI --certify path).
  std::string ToJson() const;

  /// The refuted properties as FX3xx error diagnostics (empty report
  /// when certified). A malformed algebra reports FX305 alone.
  AnalysisReport Report() const;
};

/// Statically proves or refutes the two properties for `algebra` by
/// interval analysis over the key expressions: for each key the
/// certifier bounds the partial derivatives d(key)/d(ss) and
/// d(key)/d(ks), tracks affineness, and rejects opaque terms. Pure
/// function of the algebra; never consults the corpus.
SchemeCertificate CertifyScheme(const SchemeAlgebra& algebra);

}  // namespace flexpath

#endif  // FLEXPATH_ANALYSIS_SCORE_ALGEBRA_H_
