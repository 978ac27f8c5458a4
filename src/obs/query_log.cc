#include "obs/query_log.h"

#include <cctype>
#include <cstdlib>
#include <sstream>

#include "common/json_util.h"

namespace flexpath {

namespace {

/// Minimal JSON scanner for the flat (one nested "usage" object) records
/// this log writes. Not a general JSON parser: tolerates whitespace,
/// string escapes, numbers, booleans and one object level — exactly the
/// grammar QueryLogRecordToJson emits, plus unknown keys of those shapes.
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

  /// Raw text of the most recent number parsed — lets callers re-read
  /// full-width uint64 fields (digests) that a double round-trip would
  /// truncate past 2^53.
  const std::string& last_number_token() const { return last_number_token_; }

  /// Parses any value of the writer's grammar, keeping only what the
  /// caller asked for: string into `*s` (when non-null), number/bool into
  /// `*d`. Nested objects are handed to `object_cb(key-scanner)`.
  template <typename ObjectFn>
  bool ParseValue(std::string* s, double* d, ObjectFn&& object_cb) {
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
/// path would round them).
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

void AppendField(std::string& out, const char* key, const std::string& value,
                 bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":\"";
  out += JsonEscape(value);
  out += '"';
}

void AppendField(std::string& out, const char* key, double value,
                 bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += FormatDouble(value);
}

void AppendField(std::string& out, const char* key, uint64_t value,
                 bool* first) {
  if (!*first) out += ',';
  *first = false;
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
}

}  // namespace

std::string QueryLogRecordToJson(const QueryLogRecord& r) {
  std::string out = "{";
  bool first = true;
  AppendField(out, "ts", r.ts_unix_s, &first);
  AppendField(out, "query", r.query, &first);
  AppendField(out, "fingerprint", r.fingerprint, &first);
  AppendField(out, "algorithm", r.algorithm, &first);
  AppendField(out, "scheme", r.scheme, &first);
  AppendField(out, "k", r.k, &first);
  AppendField(out, "threads", r.threads, &first);
  AppendField(out, "latency_ms", r.latency_ms, &first);
  AppendField(out, "answers", r.answers, &first);
  AppendField(out, "relaxations", r.relaxations, &first);
  AppendField(out, "predicates_dropped", r.predicates_dropped, &first);
  AppendField(out, "penalty", r.penalty, &first);
  if (!first) out += ',';
  out += "\"budget_exhausted\":";
  out += r.budget_exhausted ? "true" : "false";
  AppendField(out, "answers_digest", r.answers_digest, &first);
  out += ",\"usage\":{";
  bool usage_first = true;
  r.usage.ForEach([&out, &usage_first](const char* name, double value) {
    AppendField(out, name, value, &usage_first);
  });
  out += "}}";
  return out;
}

bool ParseQueryLogRecord(std::string_view line, QueryLogRecord* out,
                         std::string* error) {
  *out = QueryLogRecord();
  JsonScanner scanner(line);
  const auto skip_object = [](JsonScanner& s) {
    return ParseObject(s, [&s](const std::string&) {
      return s.ParseValue(nullptr, nullptr,
                          [](JsonScanner&) { return false; });
    });
  };
  const auto parse_usage = [out](JsonScanner& s) {
    return ParseObject(s, [out, &s](const std::string& key) {
      double v = 0.0;
      if (!s.ParseValue(nullptr, &v,
                        [](JsonScanner&) { return false; })) {
        return false;
      }
      ResourceUsage& u = out->usage;
      if (key == "cpu_ms") u.cpu_ms = v;
      else if (key == "tuples_scanned") u.tuples_scanned = static_cast<uint64_t>(v);
      else if (key == "tuples_produced") u.tuples_produced = static_cast<uint64_t>(v);
      else if (key == "bytes_touched") u.bytes_touched = static_cast<uint64_t>(v);
      else if (key == "rounds_executed") u.rounds_executed = static_cast<uint64_t>(v);
      else if (key == "rounds_pruned") u.rounds_pruned = static_cast<uint64_t>(v);
      return true;
    });
  };
  const bool ok = ParseObject(scanner, [&](const std::string& key) {
    if (key == "usage") return parse_usage(scanner);
    std::string s;
    double d = 0.0;
    if (!scanner.ParseValue(&s, &d, skip_object)) return false;
    if (key == "ts") out->ts_unix_s = d;
    else if (key == "query") out->query = std::move(s);
    else if (key == "fingerprint") {
      out->fingerprint = ParseU64Token(scanner.last_number_token());
    } else if (key == "algorithm") out->algorithm = std::move(s);
    else if (key == "scheme") out->scheme = std::move(s);
    else if (key == "k") out->k = static_cast<uint64_t>(d);
    else if (key == "threads") out->threads = static_cast<uint64_t>(d);
    else if (key == "latency_ms") out->latency_ms = d;
    else if (key == "answers") out->answers = static_cast<uint64_t>(d);
    else if (key == "relaxations") out->relaxations = static_cast<uint64_t>(d);
    else if (key == "predicates_dropped") {
      out->predicates_dropped = static_cast<uint64_t>(d);
    } else if (key == "penalty") out->penalty = d;
    else if (key == "budget_exhausted") out->budget_exhausted = d != 0.0;
    else if (key == "answers_digest") {
      out->answers_digest = ParseU64Token(scanner.last_number_token());
    }
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

Result<std::vector<QueryLogRecord>> ReadQueryLog(const std::string& path,
                                                 size_t* truncated_lines) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("cannot open query log: " + path);
  }
  if (truncated_lines != nullptr) *truncated_lines = 0;
  std::vector<QueryLogRecord> records;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const bool had_newline = !in.eof();
    if (line.empty()) continue;
    QueryLogRecord record;
    std::string error;
    if (!ParseQueryLogRecord(line, &record, &error)) {
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
      new QueryLogWriter(path, std::move(out)));
}

QueryLogWriter::QueryLogWriter(std::string path, std::ofstream out)
    : path_(std::move(path)), out_(std::move(out)) {}

void QueryLogWriter::Append(const QueryLogRecord& record) {
  const std::string line = QueryLogRecordToJson(record);
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
