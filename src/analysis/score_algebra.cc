#include "analysis/score_algebra.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json_util.h"

namespace flexpath {

namespace {

std::string KeyLabel(size_t i) { return "key " + std::to_string(i + 1); }

}  // namespace

// --- ScoreExpr --------------------------------------------------------------

ScoreExpr ScoreExpr::Ss() {
  ScoreExpr e;
  e.kind = Kind::kStructural;
  return e;
}

ScoreExpr ScoreExpr::Ks() {
  ScoreExpr e;
  e.kind = Kind::kKeyword;
  return e;
}

ScoreExpr ScoreExpr::Penalty() {
  ScoreExpr e;
  e.kind = Kind::kPenalty;
  return e;
}

ScoreExpr ScoreExpr::Const(double v) {
  ScoreExpr e;
  e.kind = Kind::kConst;
  e.value = v;
  return e;
}

ScoreExpr ScoreExpr::Weighted(double w, ScoreExpr child) {
  ScoreExpr e;
  e.kind = Kind::kWeighted;
  e.value = w;
  e.children.push_back(std::move(child));
  return e;
}

ScoreExpr ScoreExpr::Sum(std::vector<ScoreExpr> es) {
  ScoreExpr e;
  e.kind = Kind::kSum;
  e.children = std::move(es);
  return e;
}

ScoreExpr ScoreExpr::Min(std::vector<ScoreExpr> es) {
  ScoreExpr e;
  e.kind = Kind::kMin;
  e.children = std::move(es);
  return e;
}

ScoreExpr ScoreExpr::Max(std::vector<ScoreExpr> es) {
  ScoreExpr e;
  e.kind = Kind::kMax;
  e.children = std::move(es);
  return e;
}

ScoreExpr ScoreExpr::Opaque(std::string label) {
  ScoreExpr e;
  e.kind = Kind::kOpaque;
  e.label = std::move(label);
  return e;
}

double ScoreExpr::Eval(double ss, double ks) const {
  switch (kind) {
    case Kind::kStructural:
      return ss;
    case Kind::kKeyword:
      return ks;
    case Kind::kPenalty:
      return -ss;
    case Kind::kConst:
      return value;
    case Kind::kWeighted:
      return children.empty() ? 0.0 : value * children[0].Eval(ss, ks);
    case Kind::kSum: {
      double total = 0.0;
      for (const ScoreExpr& c : children) total += c.Eval(ss, ks);
      return total;
    }
    case Kind::kMin: {
      if (children.empty()) return 0.0;
      double best = children[0].Eval(ss, ks);
      for (size_t i = 1; i < children.size(); ++i) {
        best = std::min(best, children[i].Eval(ss, ks));
      }
      return best;
    }
    case Kind::kMax: {
      if (children.empty()) return 0.0;
      double best = children[0].Eval(ss, ks);
      for (size_t i = 1; i < children.size(); ++i) {
        best = std::max(best, children[i].Eval(ss, ks));
      }
      return best;
    }
    case Kind::kOpaque:
      return 0.0;
  }
  return 0.0;
}

std::string ScoreExpr::ToString() const {
  auto join = [this](const char* open, const char* sep,
                     const char* close) {
    std::string out = open;
    for (size_t i = 0; i < children.size(); ++i) {
      if (i > 0) out += sep;
      out += children[i].ToString();
    }
    out += close;
    return out;
  };
  switch (kind) {
    case Kind::kStructural:
      return "ss";
    case Kind::kKeyword:
      return "ks";
    case Kind::kPenalty:
      return "penalty";
    case Kind::kConst:
      return FormatDouble(value);
    case Kind::kWeighted:
      return FormatDouble(value) + "*" +
             (children.empty() ? "0" : children[0].ToString());
    case Kind::kSum:
      return join("(", " + ", ")");
    case Kind::kMin:
      return join("min(", ", ", ")");
    case Kind::kMax:
      return join("max(", ", ", ")");
    case Kind::kOpaque:
      return "opaque(" + label + ")";
  }
  return "?";
}

// --- SchemeAlgebra ----------------------------------------------------------

bool SchemeAlgebra::RanksBefore(double a_ss, double a_ks, double b_ss,
                                double b_ks) const {
  for (const ScoreExpr& key : keys) {
    const double a = key.Eval(a_ss, a_ks);
    const double b = key.Eval(b_ss, b_ks);
    if (std::fabs(a - b) <= tie_epsilon) continue;
    return a > b;
  }
  return false;
}

std::string SchemeAlgebra::ToString() const {
  if (keys.size() == 1) return keys[0].ToString();
  std::string out = "lex(";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys[i].ToString();
  }
  out += ")";
  return out;
}

SchemeAlgebra StructureFirstAlgebra() {
  return SchemeAlgebra{"structure-first",
                       {ScoreExpr::Ss(), ScoreExpr::Ks()},
                       0.0};
}

SchemeAlgebra KeywordFirstAlgebra() {
  return SchemeAlgebra{"keyword-first",
                       {ScoreExpr::Ks(), ScoreExpr::Ss()},
                       0.0};
}

SchemeAlgebra CombinedAlgebra() {
  return SchemeAlgebra{
      "combined", {ScoreExpr::Sum({ScoreExpr::Ss(), ScoreExpr::Ks()})}, 0.0};
}

// --- Certifier --------------------------------------------------------------

const char* DpoStopRuleName(DpoStopRule rule) {
  switch (rule) {
    case DpoStopRule::kAtK:
      return "at-k";
    case DpoStopRule::kPenaltyMargin:
      return "penalty-margin";
    case DpoStopRule::kExhaustive:
      return "exhaustive";
  }
  return "unknown";
}

namespace {

/// Closed interval bound on a partial derivative.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
};

Interval Scale(Interval iv, double w) {
  Interval out{iv.lo * w, iv.hi * w};
  if (out.lo > out.hi) std::swap(out.lo, out.hi);
  return out;
}

Interval Add(Interval a, Interval b) { return {a.lo + b.lo, a.hi + b.hi}; }

Interval Hull(Interval a, Interval b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

/// What the abstract interpretation knows about one expression: bounds
/// on d(expr)/d(ss) and d(expr)/d(ks) (subgradient bounds for min/max),
/// whether the expression is affine in (ss, ks), and whether it contains
/// an opaque term (in which case the intervals are meaningless and every
/// property is refuted).
struct ExprFacts {
  Interval ss;
  Interval ks;
  bool affine = true;
  bool opaque = false;
};

ExprFacts Analyze(const ScoreExpr& e) {
  ExprFacts f;
  switch (e.kind) {
    case ScoreExpr::Kind::kStructural:
      f.ss = {1.0, 1.0};
      return f;
    case ScoreExpr::Kind::kKeyword:
      f.ks = {1.0, 1.0};
      return f;
    case ScoreExpr::Kind::kPenalty:
      f.ss = {-1.0, -1.0};
      return f;
    case ScoreExpr::Kind::kConst:
      return f;
    case ScoreExpr::Kind::kWeighted: {
      if (e.children.empty()) return f;
      ExprFacts c = Analyze(e.children[0]);
      c.ss = Scale(c.ss, e.value);
      c.ks = Scale(c.ks, e.value);
      return c;
    }
    case ScoreExpr::Kind::kSum: {
      for (const ScoreExpr& child : e.children) {
        const ExprFacts c = Analyze(child);
        f.ss = Add(f.ss, c.ss);
        f.ks = Add(f.ks, c.ks);
        f.affine = f.affine && c.affine;
        f.opaque = f.opaque || c.opaque;
      }
      return f;
    }
    case ScoreExpr::Kind::kMin:
    case ScoreExpr::Kind::kMax: {
      if (e.children.empty()) return f;
      f = Analyze(e.children[0]);
      for (size_t i = 1; i < e.children.size(); ++i) {
        const ExprFacts c = Analyze(e.children[i]);
        f.ss = Hull(f.ss, c.ss);
        f.ks = Hull(f.ks, c.ks);
        f.opaque = f.opaque || c.opaque;
        // min/max of monotone pieces stays monotone but not affine.
        f.affine = false;
      }
      return f;
    }
    case ScoreExpr::Kind::kOpaque:
      f.opaque = true;
      f.affine = false;
      return f;
  }
  return f;
}

/// Structural well-formedness walk: arity of every combinator, finite
/// constants and weights. Returns an FX305 detail string, empty when OK.
std::string CheckWellFormed(const ScoreExpr& e) {
  switch (e.kind) {
    case ScoreExpr::Kind::kStructural:
    case ScoreExpr::Kind::kKeyword:
    case ScoreExpr::Kind::kPenalty:
    case ScoreExpr::Kind::kOpaque:
      if (!e.children.empty()) return "leaf term carries children";
      return "";
    case ScoreExpr::Kind::kConst:
      if (!e.children.empty()) return "constant carries children";
      if (!std::isfinite(e.value)) return "non-finite constant";
      return "";
    case ScoreExpr::Kind::kWeighted:
      if (e.children.size() != 1) return "weighted term needs one operand";
      if (!std::isfinite(e.value)) return "non-finite weight";
      return CheckWellFormed(e.children[0]);
    case ScoreExpr::Kind::kSum:
    case ScoreExpr::Kind::kMin:
    case ScoreExpr::Kind::kMax: {
      if (e.children.empty()) return "empty combinator";
      for (const ScoreExpr& c : e.children) {
        std::string err = CheckWellFormed(c);
        if (!err.empty()) return err;
      }
      return "";
    }
  }
  return "unknown expression kind";
}

PropertyVerdict Hold(std::string detail) {
  return PropertyVerdict{true, "", std::move(detail)};
}

PropertyVerdict Refute(std::string_view code, std::string detail) {
  return PropertyVerdict{false, std::string(code), std::move(detail)};
}

std::string IntervalString(Interval iv) {
  return "[" + FormatDouble(iv.lo) + ", " + FormatDouble(iv.hi) + "]";
}

std::string VerdictJson(const char* name, const PropertyVerdict& v) {
  std::string out = "\"";
  out += name;
  out += "\":{\"holds\":";
  out += v.holds ? "true" : "false";
  out += ",\"code\":\"" + JsonEscape(v.code) + "\"";
  out += ",\"detail\":\"" + JsonEscape(v.detail) + "\"}";
  return out;
}

}  // namespace

SchemeCertificate CertifyScheme(const SchemeAlgebra& algebra) {
  SchemeCertificate cert;
  cert.scheme = algebra.name;
  cert.expression = algebra.ToString();

  // Well-formedness first: the interval analysis assumes sane arity and
  // finite coefficients, so nothing else is evaluated on failure.
  std::string malformed;
  if (algebra.keys.empty()) {
    malformed = "no ranking keys";
  } else {
    for (size_t i = 0; i < algebra.keys.size() && malformed.empty(); ++i) {
      std::string err = CheckWellFormed(algebra.keys[i]);
      if (!err.empty()) malformed = KeyLabel(i) + ": " + err;
    }
    if (malformed.empty() && !std::isfinite(algebra.tie_epsilon)) {
      malformed = "non-finite tie_epsilon";
    }
  }
  if (!malformed.empty()) {
    cert.well_formed = Refute(kDiagSchemeMalformed, malformed);
    const std::string skipped = "not evaluated: malformed algebra (FX305)";
    cert.relaxation_monotone = Refute(kDiagSchemeMalformed, skipped);
    cert.order_invariant = Refute(kDiagSchemeMalformed, skipped);
    return cert;
  }
  cert.well_formed = Hold("keys have sound arity and finite coefficients");

  std::vector<ExprFacts> facts;
  facts.reserve(algebra.keys.size());
  for (const ScoreExpr& key : algebra.keys) facts.push_back(Analyze(key));

  // Relaxation monotonicity (Theorem 3): relaxing a query only lowers
  // ss, so with every key non-decreasing in ss a more-relaxed
  // incarnation can never outrank a less-relaxed one on structure. This
  // is what DPO stopping rules, static round pruning and threshold
  // pruning assume.
  cert.relaxation_monotone =
      Hold("every key is non-decreasing in ss (d(key)/d(ss) >= 0)");
  for (size_t i = 0; i < facts.size(); ++i) {
    if (facts[i].opaque) {
      cert.relaxation_monotone = Refute(
          kDiagSchemeNotMonotone,
          KeyLabel(i) + " contains an opaque term: monotonicity in ss is "
                        "not provable, so DPO stopping rules, static_prune "
                        "and threshold pruning would be unsound");
      break;
    }
    if (facts[i].ss.lo < 0.0) {
      cert.relaxation_monotone = Refute(
          kDiagSchemeNotMonotone,
          KeyLabel(i) + " can decrease as ss increases (d(key)/d(ss) in " +
              IntervalString(facts[i].ss) +
              "): a more-relaxed answer may outrank a less-relaxed one, "
              "breaking Theorem 3 prefix monotonicity");
      break;
    }
  }

  // Order invariance: the comparator must be a pure deterministic
  // function of (ss, ks) with exact ties, or merge order (thread
  // schedule) leaks into the answer list.
  bool any_opaque = false;
  for (const ExprFacts& f : facts) any_opaque = any_opaque || f.opaque;
  if (any_opaque) {
    cert.order_invariant =
        Refute(kDiagSchemeNotOrderInvariant,
               "an opaque term makes the comparator not provably "
               "deterministic; serial-order merge may reorder answers");
  } else if (algebra.tie_epsilon != 0.0) {
    cert.order_invariant = Refute(
        kDiagSchemeNotOrderInvariant,
        "epsilon tie-banding (|a-b| <= " + FormatDouble(algebra.tie_epsilon) +
            " compares equal) is not transitive, so the merged order "
            "depends on encounter order");
  } else {
    cert.order_invariant = Hold(
        "comparator is a pure deterministic function of (ss, ks) with "
        "exact ties");
  }

  cert.certified = cert.well_formed.holds && cert.relaxation_monotone.holds &&
                   cert.order_invariant.holds;

  // Directives: what the proof licenses on the primary key. Threshold
  // pruning compares bounds in ss units with an optimistic keyword
  // bonus, which is sound exactly when key 1 is affine with a strictly
  // positive constant ss coefficient and a non-negative ks coefficient;
  // the bonus scales by ks_hi / ss_lo.
  const ExprFacts& k1 = facts[0];
  if (cert.relaxation_monotone.holds && cert.order_invariant.holds &&
      !k1.opaque && k1.affine && k1.ss.lo > 0.0 && k1.ks.lo >= 0.0) {
    cert.threshold_pruning = true;
    cert.prune_ks_factor = k1.ks.hi / k1.ss.lo;
    cert.stop_margin_factor = cert.prune_ks_factor;
    cert.stop_rule = (k1.ks.lo == 0.0 && k1.ks.hi == 0.0)
                         ? DpoStopRule::kAtK
                         : DpoStopRule::kPenaltyMargin;
  } else {
    cert.threshold_pruning = false;
    cert.prune_ks_factor = 0.0;
    cert.stop_margin_factor = 0.0;
    cert.stop_rule = DpoStopRule::kExhaustive;
  }

  return cert;
}

std::string SchemeCertificate::ToJson() const {
  std::string out = "{";
  out += "\"scheme\":\"" + JsonEscape(scheme) + "\"";
  out += ",\"expression\":\"" + JsonEscape(expression) + "\"";
  out += ",\"certified\":";
  out += certified ? "true" : "false";
  out += ",\"properties\":{";
  out += VerdictJson("well_formed", well_formed);
  out += ",";
  out += VerdictJson("relaxation_monotone", relaxation_monotone);
  out += ",";
  out += VerdictJson("order_invariant", order_invariant);
  out += "},\"directives\":{";
  out += "\"threshold_pruning\":";
  out += threshold_pruning ? "true" : "false";
  out += ",\"prune_ks_factor\":" + FormatDouble(prune_ks_factor);
  out += ",\"stop_rule\":\"";
  out += DpoStopRuleName(stop_rule);
  out += "\",\"stop_margin_factor\":" + FormatDouble(stop_margin_factor);
  out += "}}";
  return out;
}

AnalysisReport SchemeCertificate::Report() const {
  AnalysisReport report;
  auto add = [&](const PropertyVerdict& v) {
    if (v.holds) return;
    Diagnostic d;
    d.severity = DiagSeverity::kError;
    d.code = v.code;
    d.message = "scheme '" + scheme + "' (" + expression + "): " + v.detail;
    report.diagnostics.push_back(std::move(d));
  };
  add(well_formed);
  if (!well_formed.holds) return report;  // FX305 alone; the rest is noise.
  add(relaxation_monotone);
  add(order_invariant);
  return report;
}

}  // namespace flexpath
