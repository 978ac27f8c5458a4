#ifndef FLEXBENCH_JSON_H_
#define FLEXBENCH_JSON_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/json_util.h"

namespace flexbench {

/// Appends a number with all the digits it needs to round-trip.
inline void AppendNumber(std::string* out, double v) {
  *out += flexpath::FormatDouble(v);
}

inline void AppendString(std::string* out, std::string_view s) {
  *out += '"';
  *out += flexpath::JsonEscape(s);
  *out += '"';
}

inline void AppendNumbers(std::string* out, const std::vector<double>& vs) {
  *out += '[';
  for (size_t i = 0; i < vs.size(); ++i) {
    if (i > 0) *out += ',';
    AppendNumber(out, vs[i]);
  }
  *out += ']';
}

/// Appends `"key":` (with a leading comma unless `first`).
inline void AppendKey(std::string* out, std::string_view key, bool first) {
  if (!first) *out += ',';
  AppendString(out, key);
  *out += ':';
}

}  // namespace flexbench

#endif  // FLEXBENCH_JSON_H_
