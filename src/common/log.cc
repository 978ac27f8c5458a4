#include "common/log.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "common/json_util.h"
#include "common/string_util.h"

namespace flexpath {

namespace {

std::string FormatNumber(double v) {
  // Field numbers are counts, latencies and penalties; %g keeps integers
  // integral and trims trailing zeros (same convention as traces).
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// ISO-8601 UTC with millisecond precision: 2026-08-05T09:41:00.123Z.
std::string FormatTimestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  std::tm tm{};
  gmtime_r(&secs, &tm);
  // Sized for the worst case GCC's -Wformat-truncation assumes (every
  // %d at full int width), not the 24 bytes a real timestamp needs.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm.tm_year + 1900, tm.tm_mon + 1, tm.tm_mday, tm.tm_hour,
                tm.tm_min, tm.tm_sec, static_cast<int>(ms));
  return buf;
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace:
      return "trace";
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "unknown";
}

bool ParseLogLevel(std::string_view text, LogLevel* out) {
  const std::string lower = ToLowerAscii(text);
  for (LogLevel level : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                         LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    if (lower == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  // Common aliases.
  if (lower == "warning") {
    *out = LogLevel::kWarn;
    return true;
  }
  return false;
}

Logger& Logger::Global() {
  static auto* logger = new Logger();
  return *logger;
}

void Logger::SetLevel(LogLevel level) {
  level_.store(static_cast<int>(level), std::memory_order_relaxed);
}

void Logger::SetCaptureSink(std::function<void(std::string_view)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  capture_ = std::move(fn);
}

void Logger::Log(LogLevel level, std::string_view module,
                 std::string_view message,
                 std::initializer_list<LogField> fields) {
  std::string line;
  if (json_output()) {
    // One JSON object per line. "ts", "level", "module" and "msg" are
    // reserved keys; fields render after them at the top level.
    line = "{\"ts\":\"" + FormatTimestamp() + "\"";
    line += ",\"level\":\"";
    line += LogLevelName(level);
    line += "\",\"module\":\"";
    line += JsonEscape(module);
    line += "\",\"msg\":\"";
    line += JsonEscape(message);
    line += '"';
    for (const LogField& f : fields) {
      line += ",\"";
      line += JsonEscape(f.key);
      line += "\":";
      if (f.is_number) {
        line += FormatDouble(f.number);
      } else {
        line += '"';
        line += JsonEscape(f.text);
        line += '"';
      }
    }
    line += '}';
  } else {
    line = FormatTimestamp();
    line += ' ';
    const char* name = LogLevelName(level);
    line += name;
    // Pad to the widest level name so columns line up.
    for (size_t i = std::strlen(name); i < 5; ++i) line += ' ';
    line += " [";
    line += module;
    line += "] ";
    line += message;
    for (const LogField& f : fields) {
      line += ' ';
      line += f.key;
      line += '=';
      if (f.is_number) {
        line += FormatNumber(f.number);
      } else if (f.text.find_first_of(" =\"") != std::string::npos) {
        line += '"';
        line += f.text;
        line += '"';
      } else {
        line += f.text;
      }
    }
  }
  line += '\n';

  std::lock_guard<std::mutex> lock(mu_);
  if (capture_) {
    capture_(line);
    return;
  }
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

}  // namespace flexpath
