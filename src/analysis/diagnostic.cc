#include "analysis/diagnostic.h"

#include "common/json_util.h"
#include "common/log.h"

namespace flexpath {

const char* DiagSeverityName(DiagSeverity severity) {
  switch (severity) {
    case DiagSeverity::kError:
      return "error";
    case DiagSeverity::kWarning:
      return "warning";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::string out = DiagSeverityName(severity);
  out += " [";
  out += code;
  out += "] ";
  out += message;
  if (!path.empty()) {
    out += " at ";
    out += path;
  }
  return out;
}

size_t AnalysisReport::ErrorCount() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kError) ++n;
  }
  return n;
}

size_t AnalysisReport::WarningCount() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == DiagSeverity::kWarning) ++n;
  }
  return n;
}

bool AnalysisReport::Has(std::string_view code) const {
  return Find(code) != nullptr;
}

const Diagnostic* AnalysisReport::Find(std::string_view code) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

std::string DiagnosticsJson(const AnalysisReport& report) {
  std::string out = "{\"errors\":" + std::to_string(report.ErrorCount());
  out += ",\"warnings\":" + std::to_string(report.WarningCount());
  out += ",\"unsatisfiable\":";
  out += report.unsatisfiable() ? "true" : "false";
  out += ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics) {
    if (!first) out += ',';
    first = false;
    out += "{\"severity\":\"";
    out += DiagSeverityName(d.severity);
    out += "\",\"code\":\"" + JsonEscape(d.code);
    out += "\",\"message\":\"" + JsonEscape(d.message);
    out += "\",\"path\":\"" + JsonEscape(d.path);
    out += "\"";
    if (d.var != kInvalidVar) {
      out += ",\"var\":" + std::to_string(d.var);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

void LogReport(const AnalysisReport& report, std::string_view query) {
  for (const Diagnostic& d : report.diagnostics) {
    switch (d.severity) {
      case DiagSeverity::kError:
        FLEXPATH_LOG_WARN("analysis", "query diagnostic",
                          {"code", d.code}, {"severity", "error"},
                          {"message", d.message}, {"path", d.path},
                          {"query", query});
        break;
      case DiagSeverity::kWarning:
        FLEXPATH_LOG_INFO("analysis", "query diagnostic",
                          {"code", d.code}, {"severity", "warning"},
                          {"message", d.message}, {"path", d.path},
                          {"query", query});
        break;
    }
  }
}

}  // namespace flexpath
