#include "common/string_util.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace flexpath {

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool ParseUint64(std::string_view s, uint64_t lo, uint64_t hi,
                 uint64_t* out) {
  if (s.empty()) return false;
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return false;
    value = value * 10 + digit;
  }
  if (value < lo || value > hi) return false;
  *out = value;
  return true;
}

bool ParseNonNegative(std::string_view s, double* out) {
  size_t digits = 0;
  size_t dots = 0;
  for (char c : s) {
    if (c >= '0' && c <= '9') {
      ++digits;
    } else if (c == '.') {
      ++dots;
    } else {
      return false;
    }
  }
  if (digits == 0 || dots > 1) return false;
  const double value = std::strtod(std::string(s).c_str(), nullptr);
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace flexpath
