#ifndef FLEXPATH_COMMON_LOG_H_
#define FLEXPATH_COMMON_LOG_H_

#include <atomic>
#include <functional>
#include <initializer_list>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

namespace flexpath {

/// Severity levels, least to most severe. kOff disables everything.
enum class LogLevel : int {
  kTrace = 0,
  kDebug = 1,
  kInfo = 2,
  kWarn = 3,
  kError = 4,
  kOff = 5,
};

const char* LogLevelName(LogLevel level);

/// Parses "trace"/"debug"/"info"/"warn"/"error"/"off" (case-insensitive).
bool ParseLogLevel(std::string_view text, LogLevel* out);

/// One key/value attached to a log record. Values are either text or a
/// number, mirroring TraceAnnotation so the same quantities flow into
/// both logs and traces.
struct LogField {
  std::string key;
  std::string text;     ///< Set when !is_number.
  double number = 0.0;  ///< Set when is_number.
  bool is_number = false;

  LogField(std::string k, std::string v)
      : key(std::move(k)), text(std::move(v)) {}
  LogField(std::string k, std::string_view v) : key(std::move(k)), text(v) {}
  LogField(std::string k, const char* v) : key(std::move(k)), text(v) {}
  template <typename T,
            typename = std::enable_if_t<std::is_arithmetic_v<T>>>
  LogField(std::string k, T v)
      : key(std::move(k)), number(static_cast<double>(v)), is_number(true) {}
};

/// A leveled, thread-safe structured logger. One process-wide instance
/// (Global()); records carry a module name, a message, and key/value
/// fields, and render to either a human-readable text line or one JSON
/// object per line (JSON-lines).
///
/// Hot-path cost: a disabled record is one relaxed atomic load plus an
/// integer compare (see Enabled()); the record is never formatted.
class Logger {
 public:
  static Logger& Global();

  Logger() = default;
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Global minimum severity; records below it are dropped. Default kInfo.
  void SetLevel(LogLevel level);
  LogLevel level() const {
    return static_cast<LogLevel>(level_.load(std::memory_order_relaxed));
  }

  /// When true, records render as one JSON object per line; otherwise as
  /// a human-readable text line. Default text.
  void SetJsonOutput(bool json) {
    json_.store(json, std::memory_order_relaxed);
  }
  bool json_output() const { return json_.load(std::memory_order_relaxed); }

  /// Test hook: when set, rendered lines go to `fn` instead of stderr.
  /// Pass nullptr to restore stderr.
  void SetCaptureSink(std::function<void(std::string_view)> fn);

  /// Cheap front gate: false means a record at `level` would be
  /// dropped. One relaxed load and a compare.
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >= level_.load(std::memory_order_relaxed);
  }

  /// Formats and emits one record. Call Enabled() first (the macros do).
  void Log(LogLevel level, std::string_view module, std::string_view message,
           std::initializer_list<LogField> fields = {});

 private:
  std::atomic<int> level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<bool> json_{false};
  std::mutex mu_;  ///< Guards capture_ and writes.
  std::function<void(std::string_view)> capture_;
};

#define FLEXPATH_LOG_IMPL(level_enum, module, message, ...)            \
  do {                                                                 \
    ::flexpath::Logger& flexpath_logger = ::flexpath::Logger::Global(); \
    if (flexpath_logger.Enabled((level_enum))) {                       \
      flexpath_logger.Log((level_enum), (module), (message),           \
                          {__VA_ARGS__});                              \
    }                                                                  \
  } while (0)

#define FLEXPATH_LOG_TRACE(module, message, ...) \
  FLEXPATH_LOG_IMPL(::flexpath::LogLevel::kTrace, module, message, __VA_ARGS__)
#define FLEXPATH_LOG_DEBUG(module, message, ...) \
  FLEXPATH_LOG_IMPL(::flexpath::LogLevel::kDebug, module, message, __VA_ARGS__)
#define FLEXPATH_LOG_INFO(module, message, ...) \
  FLEXPATH_LOG_IMPL(::flexpath::LogLevel::kInfo, module, message, __VA_ARGS__)
#define FLEXPATH_LOG_WARN(module, message, ...) \
  FLEXPATH_LOG_IMPL(::flexpath::LogLevel::kWarn, module, message, __VA_ARGS__)
#define FLEXPATH_LOG_ERROR(module, message, ...) \
  FLEXPATH_LOG_IMPL(::flexpath::LogLevel::kError, module, message, __VA_ARGS__)

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_LOG_H_
