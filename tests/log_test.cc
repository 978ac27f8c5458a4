#include "common/log.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace flexpath {
namespace {

/// Redirects Global() logger output into a string for one test's scope
/// and restores defaults afterwards.
class CapturedLogger {
 public:
  CapturedLogger() {
    Logger::Global().SetCaptureSink(
        [this](std::string_view line) { lines_.emplace_back(line); });
  }
  ~CapturedLogger() {
    Logger::Global().SetCaptureSink(nullptr);
    Logger::Global().SetJsonOutput(false);
    Logger::Global().SetLevel(LogLevel::kInfo);
  }

  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::vector<std::string> lines_;
};

TEST(LogLevelTest, NamesAndParsing) {
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  LogLevel level;
  EXPECT_TRUE(ParseLogLevel("DEBUG", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("warning", &level));
  EXPECT_EQ(level, LogLevel::kWarn);
  EXPECT_TRUE(ParseLogLevel("off", &level));
  EXPECT_EQ(level, LogLevel::kOff);
  EXPECT_FALSE(ParseLogLevel("verbose", &level));
}

TEST(LoggerTest, GlobalLevelFilters) {
  CapturedLogger cap;
  Logger::Global().SetLevel(LogLevel::kWarn);
  FLEXPATH_LOG_INFO("test", "dropped");
  FLEXPATH_LOG_WARN("test", "kept");
  FLEXPATH_LOG_ERROR("test", "also kept");
  ASSERT_EQ(cap.lines().size(), 2u);
  EXPECT_NE(cap.lines()[0].find("kept"), std::string::npos);
  EXPECT_NE(cap.lines()[1].find("also kept"), std::string::npos);
}

TEST(LoggerTest, DisabledCheckIsCheap) {
  // Not a perf test — just pins the contract that Enabled() is callable
  // without side effects and respects the level.
  Logger& logger = Logger::Global();
  logger.SetLevel(LogLevel::kError);
  EXPECT_FALSE(logger.Enabled(LogLevel::kDebug));
  EXPECT_TRUE(logger.Enabled(LogLevel::kError));
  logger.SetLevel(LogLevel::kInfo);
}

TEST(LoggerTest, TextLineCarriesFields) {
  CapturedLogger cap;
  FLEXPATH_LOG_INFO("exec", "query executed", {"algorithm", "DPO"},
                    {"latency_ms", 1.5}, {"answers", 10});
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_NE(line.find("info"), std::string::npos) << line;
  EXPECT_NE(line.find("[exec]"), std::string::npos) << line;
  EXPECT_NE(line.find("query executed"), std::string::npos) << line;
  EXPECT_NE(line.find("algorithm=DPO"), std::string::npos) << line;
  EXPECT_NE(line.find("latency_ms=1.5"), std::string::npos) << line;
  EXPECT_NE(line.find("answers=10"), std::string::npos) << line;
}

TEST(LoggerTest, TextLineQuotesValuesWithSpaces) {
  CapturedLogger cap;
  FLEXPATH_LOG_INFO("test", "msg", {"query", "//a[./b and ./c]"});
  ASSERT_EQ(cap.lines().size(), 1u);
  EXPECT_NE(cap.lines()[0].find("query=\"//a[./b and ./c]\""),
            std::string::npos)
      << cap.lines()[0];
}

TEST(LoggerTest, JsonLinesAreWellFormed) {
  CapturedLogger cap;
  Logger::Global().SetJsonOutput(true);
  FLEXPATH_LOG_WARN("exec", "slow \"query\"", {"query", "//a[.contains(\"x\")]"},
                    {"latency_ms", 12.5});
  ASSERT_EQ(cap.lines().size(), 1u);
  const std::string& line = cap.lines()[0];
  EXPECT_EQ(line.front(), '{') << line;
  EXPECT_EQ(line[line.size() - 2], '}') << line;  // Last char is \n.
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"module\":\"exec\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"msg\":\"slow \\\"query\\\"\""), std::string::npos)
      << line;
  EXPECT_NE(line.find("\"query\":\"//a[.contains(\\\"x\\\")]\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"latency_ms\":12.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":\""), std::string::npos) << line;
}

TEST(LoggerTest, ConcurrentLoggingKeepsLinesIntact) {
  CapturedLogger cap;
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        FLEXPATH_LOG_INFO("mt", "line", {"thread", t}, {"i", i});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(cap.lines().size(), static_cast<size_t>(kThreads) * kLines);
  for (const std::string& line : cap.lines()) {
    EXPECT_NE(line.find("[mt] line"), std::string::npos) << line;
    EXPECT_EQ(line.back(), '\n');
  }
}

}  // namespace
}  // namespace flexpath
