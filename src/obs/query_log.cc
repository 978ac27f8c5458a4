#include "obs/query_log.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/json_util.h"

namespace flexpath {

namespace {

/// Minimal JSON scanner for the flat records this log writes. Not a
/// general JSON parser: tolerates whitespace, string escapes, numbers,
/// booleans and one level of nested object — the grammar
/// AppendExecutionJson emits, plus unknown keys of those shapes (such as
/// the nested "usage" object of logs written before it became cpu_ms).
class JsonScanner {
 public:
  explicit JsonScanner(std::string_view text) : text_(text) {}

  bool Fail(std::string msg) {
    if (error_.empty()) {
      error_ = std::move(msg) + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  const std::string& error() const { return error_; }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool Consume(char c) {
    if (Peek() != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("bad \\u escape");
            }
          }
          // The writer only \u-escapes control characters (< 0x20), so a
          // single byte suffices; anything else is preserved as UTF-8 by
          // the escaper and never reaches this branch.
          out->push_back(static_cast<char>(code));
          break;
        }
        default:
          return Fail("bad escape");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(double* out) {
    SkipSpace();
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected number");
    last_number_token_.assign(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(last_number_token_.c_str(), &end);
    if (end != last_number_token_.c_str() + last_number_token_.size()) {
      return Fail("bad number");
    }
    return true;
  }

  /// Raw text of the number the last ParseValue read (empty when the
  /// value was not a number) — lets callers re-read full-width uint64
  /// fields (digests) that a double round-trip would truncate past 2^53.
  const std::string& last_number_token() const { return last_number_token_; }

  /// Parses any value of the writer's grammar, keeping only what the
  /// caller asked for: string into `*s` (when non-null), number/bool into
  /// `*d`. Nested objects are handed to `object_cb(key-scanner)`.
  template <typename ObjectFn>
  bool ParseValue(std::string* s, double* d, ObjectFn&& object_cb) {
    last_number_token_.clear();
    const char c = Peek();
    if (c == '"') {
      std::string tmp;
      if (!ParseString(s != nullptr ? s : &tmp)) return false;
      return true;
    }
    if (c == '{') return object_cb(*this);
    if (c == 't') return ConsumeWord("true", d, 1.0);
    if (c == 'f') return ConsumeWord("false", d, 0.0);
    if (c == 'n') return ConsumeWord("null", d, 0.0);
    double tmp = 0.0;
    return ParseNumber(d != nullptr ? d : &tmp);
  }

 private:
  bool ConsumeWord(std::string_view word, double* d, double value) {
    SkipSpace();
    if (text_.substr(pos_, word.size()) != word) {
      return Fail("bad literal");
    }
    pos_ += word.size();
    if (d != nullptr) *d = value;
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::string error_;
  std::string last_number_token_;
};

/// Exact uint64 from a number token (digests use all 64 bits; the double
/// path would round them, and casting an out-of-range double to an
/// integer is undefined). An empty token reads as 0.
uint64_t ParseU64Token(const std::string& token) {
  return std::strtoull(token.c_str(), nullptr, 10);
}

/// Parses a `{ "key": value, ... }` object, invoking `field_cb(key,
/// scanner)` per member; the callback must consume exactly one value.
template <typename FieldFn>
bool ParseObject(JsonScanner& scanner, FieldFn&& field_cb) {
  if (!scanner.Consume('{')) return false;
  if (scanner.Peek() == '}') return scanner.Consume('}');
  for (;;) {
    std::string key;
    if (!scanner.ParseString(&key)) return false;
    if (!scanner.Consume(':')) return false;
    if (!field_cb(key)) return false;
    const char c = scanner.Peek();
    if (c == ',') {
      scanner.Consume(',');
      continue;
    }
    return scanner.Consume('}');
  }
}

}  // namespace

bool ParseQueryLogLine(std::string_view line, QueryExecution* out,
                       std::string* error) {
  *out = QueryExecution();
  JsonScanner scanner(line);
  const auto skip_object = [](JsonScanner& s) {
    return ParseObject(s, [&s](const std::string&) {
      return s.ParseValue(nullptr, nullptr,
                          [](JsonScanner&) { return false; });
    });
  };
  // The counters object maps each ExecCounters field by name.
  const auto parse_counters = [out](JsonScanner& s) {
    return ParseObject(s, [&s, out](const std::string& name) {
      if (!s.ParseValue(nullptr, nullptr,
                        [](JsonScanner&) { return false; })) {
        return false;
      }
      ExecCounters::VisitFields(
          out->counters,
          [&](const char* field, uint64_t& value, ExecCounters::Agg) {
            if (name == field) value = ParseU64Token(s.last_number_token());
          });
      return true;
    });
  };
  const bool ok = ParseObject(scanner, [&](const std::string& key) {
    std::string s;
    double d = 0.0;
    const char first = scanner.Peek();
    if (key == "counters" && first == '{') return parse_counters(scanner);
    if (!scanner.ParseValue(&s, &d, skip_object)) return false;
    const uint64_t n = ParseU64Token(scanner.last_number_token());
    if (key == "ts") out->ts_unix_s = d;
    else if (key == "query") out->query = std::move(s);
    else if (key == "fingerprint") {
      // Hex digits in a string; older logs wrote a decimal number.
      out->fingerprint =
          first == '"' ? std::strtoull(s.c_str(), nullptr, 16) : n;
    } else if (key == "algorithm") out->algorithm = std::move(s);
    else if (key == "scheme") out->scheme = std::move(s);
    else if (key == "k") out->k = n;
    else if (key == "threads") out->threads = n;
    else if (key == "latency_ms") out->latency_ms = d;
    else if (key == "answers") out->answers = n;
    else if (key == "relaxations") out->relaxations = n;
    else if (key == "predicates_dropped") out->predicates_dropped = n;
    else if (key == "penalty") out->penalty = d;
    else if (key == "error") out->error = d != 0.0;
    else if (key == "budget_exhausted") out->budget_exhausted = d != 0.0;
    else if (key == "answers_digest") out->answers_digest = n;
    else if (key == "cpu_ms") out->cpu_ms = d;
    return true;
  });
  if (!ok || !scanner.AtEnd()) {
    if (error != nullptr) {
      *error = scanner.error().empty() ? "trailing garbage" : scanner.error();
    }
    return false;
  }
  return true;
}

Result<std::vector<QueryExecution>> ReadQueryLog(const std::string& path,
                                                 size_t* truncated_lines) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open query log: " + path);
  }
  if (truncated_lines != nullptr) *truncated_lines = 0;
  std::vector<QueryExecution> records;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const bool had_newline = !in.eof();
    if (line.empty()) continue;
    QueryExecution record;
    std::string error;
    if (!ParseQueryLogLine(line, &record, &error)) {
      if (!had_newline) {
        // Partial final line: a capture cut off mid-append (crash or
        // kill -9). Drop it rather than fail the whole replay.
        if (truncated_lines != nullptr) ++*truncated_lines;
        break;
      }
      return Status::ParseError("query log " + path + " line " +
                                std::to_string(line_no) + ": " + error);
    }
    records.push_back(std::move(record));
  }
  return records;
}

Result<std::unique_ptr<QueryLogWriter>> QueryLogWriter::Open(
    const std::string& path) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open query log for append: " +
                                   path);
  }
  return std::unique_ptr<QueryLogWriter>(
      new QueryLogWriter(std::move(out)));
}

QueryLogWriter::QueryLogWriter(std::ofstream out) : out_(std::move(out)) {}

void QueryLogWriter::Append(const QueryExecution& record) {
  std::string line;
  AppendExecutionJson(&line, record);
  MutexLock lock(mu_);
  out_ << line << '\n';
  out_.flush();
  ++records_;
}

uint64_t QueryLogWriter::records_written() const {
  MutexLock lock(mu_);
  return records_;
}

}  // namespace flexpath
