#ifndef FLEXPATH_COMMON_STRING_UTIL_H_
#define FLEXPATH_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace flexpath {

/// Returns `s` lowercased (ASCII only; XML tag names and query keywords in
/// this library are ASCII).
std::string ToLowerAscii(std::string_view s);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses `s` as a decimal integer in [lo, hi]: digits only (no sign,
/// space or suffix) and no overflow. False on anything else, leaving
/// `*out` untouched.
bool ParseUint64(std::string_view s, uint64_t lo, uint64_t hi,
                 uint64_t* out);

/// Parses `s` as a finite, non-negative decimal number (digits with at
/// most one '.', no sign or exponent). False on anything else, leaving
/// `*out` untouched.
bool ParseNonNegative(std::string_view s, double* out);

/// Escapes the five XML special characters (& < > " ') for serialization.
std::string XmlEscape(std::string_view s);

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_STRING_UTIL_H_
