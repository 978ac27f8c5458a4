#ifndef FLEXPATH_ANALYSIS_DIAGNOSTIC_H_
#define FLEXPATH_ANALYSIS_DIAGNOSTIC_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "query/predicate.h"

namespace flexpath {

/// Severity of a static-analysis finding.
///  - kError:   the query (or plan) cannot produce answers / is invalid;
///  - kWarning: legal but wasteful — e.g. a predicate whose drop is a
///              no-op relaxation that costs a DPO round.
enum class DiagSeverity : uint8_t {
  kError = 0,
  kWarning = 1,
};

const char* DiagSeverityName(DiagSeverity severity);

/// Stable diagnostic codes ("flexcheck" pass, DESIGN.md §11). The
/// code string is part of the tool contract: scripts grep for it, tests
/// pin it. Numbering: FX001 a malformed pattern, FX1xx corpus-level
/// unsatisfiability (statistics prove zero answers), FX2xx redundancy
/// warnings. FX002-FX005 (tag conflicts, pc/ad cycles and nodes cut off
/// from the answer) are retired with the logical-form input: a validated
/// tree cannot fail them. FX3xx is retired too; neither is reused.
inline constexpr std::string_view kDiagMalformed = "FX001";
inline constexpr std::string_view kDiagEmptyTag = "FX101";
inline constexpr std::string_view kDiagEmptyContains = "FX102";
inline constexpr std::string_view kDiagDeadEdge = "FX103";
inline constexpr std::string_view kDiagRedundantPredicate = "FX201";

/// One static-analysis finding.
struct Diagnostic {
  DiagSeverity severity = DiagSeverity::kError;
  std::string code;     ///< Stable code, e.g. "FX101".
  std::string message;  ///< Human-readable explanation.
  /// Offending node path: the variable plus its spine from the query
  /// root, e.g. "$3 (/article//section)". Empty for whole-query findings.
  std::string path;
  VarId var = kInvalidVar;  ///< Offending variable; kInvalidVar if none.

  std::string ToString() const;
};

/// The result of one analysis pass over a query.
struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;

  size_t ErrorCount() const;
  size_t WarningCount() const;

  /// True when any error-severity diagnostic proves the query can return
  /// no answers (every FX001/FX1xx error implies that).
  bool unsatisfiable() const { return ErrorCount() > 0; }

  /// True when the report contains a diagnostic with this code.
  bool Has(std::string_view code) const;

  /// First diagnostic with this code, or nullptr.
  const Diagnostic* Find(std::string_view code) const;
};

/// Renders a report as one JSON object:
///   {"errors":N,"warnings":N,"unsatisfiable":bool,
///    "diagnostics":[{"severity":"error","code":"FX101",
///                    "message":...,"path":...,"var":N},...]}
std::string DiagnosticsJson(const AnalysisReport& report);

/// Renders each diagnostic through the structured logger (module
/// "analysis"): errors at WARN, warnings at INFO.
/// `query` labels the records with the analyzed pattern.
void LogReport(const AnalysisReport& report, std::string_view query);

}  // namespace flexpath

#endif  // FLEXPATH_ANALYSIS_DIAGNOSTIC_H_
