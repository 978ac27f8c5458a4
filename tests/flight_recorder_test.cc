#include "obs/flight_recorder.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace flexpath {
namespace {

// A private recorder per test would be ideal, but the API is a process
// global by design (the pipeline records unconditionally); Reset()
// between tests gives the isolation the assertions need. Tests that
// exercise the pipeline elsewhere in the suite may interleave events, so
// these tests run against a fresh Reset() and assert on their own events
// by type/payload, not on absolute positions.
class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { FlightRecorder::Global().Reset(); }
  void TearDown() override { FlightRecorder::Global().Reset(); }
};

TEST_F(FlightRecorderTest, RecordsEventsInOrderWithPayloads) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Record(FlightEventType::kQueryStart, 0xabcdef, 10);
  rec.Record(FlightEventType::kRoundStart, 1, 0, 0.25);
  rec.Record(FlightEventType::kQueryEnd, 0xabcdef, 7, 3.5);

  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, FlightEventType::kQueryStart);
  EXPECT_EQ(events[0].a, 0xabcdefu);
  EXPECT_EQ(events[0].b, 10u);
  EXPECT_EQ(events[1].type, FlightEventType::kRoundStart);
  EXPECT_DOUBLE_EQ(events[1].d, 0.25);
  EXPECT_EQ(events[2].type, FlightEventType::kQueryEnd);
  EXPECT_DOUBLE_EQ(events[2].d, 3.5);
  // Sequence numbers are the global order; timestamps never run backward.
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[2].seq, 2u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[1].ts_us, events[2].ts_us);
  EXPECT_EQ(rec.recorded(), 3u);
}

TEST_F(FlightRecorderTest, RingWrapsKeepingTheMostRecentEvents) {
  FlightRecorder& rec = FlightRecorder::Global();
  const size_t total = FlightRecorder::kCapacity + 100;
  for (size_t i = 0; i < total; ++i) {
    rec.Record(FlightEventType::kRoundStart, /*a=*/i);
  }
  EXPECT_EQ(rec.recorded(), total);
  const std::vector<FlightEvent> events = rec.Snapshot();
  ASSERT_EQ(events.size(), FlightRecorder::kCapacity);
  // Oldest survivor is the first event not yet overwritten.
  EXPECT_EQ(events.front().a, 100u);
  EXPECT_EQ(events.back().a, total - 1);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST_F(FlightRecorderTest, ConcurrentRecordersNeverProduceTornEvents) {
  FlightRecorder& rec = FlightRecorder::Global();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;  // > capacity in total: wraps under race.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&rec, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // a and b carry the same value; a torn slot would break the pair.
        const uint64_t v = static_cast<uint64_t>(t) * kPerThread + i;
        rec.Record(FlightEventType::kRoundStart, v, v,
                   static_cast<double>(v));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rec.recorded(),
            static_cast<uint64_t>(kThreads) * kPerThread);
  const std::vector<FlightEvent> events = rec.Snapshot();
  EXPECT_LE(events.size(), FlightRecorder::kCapacity);
  EXPECT_GT(events.size(), 0u);
  for (const FlightEvent& e : events) {
    EXPECT_EQ(e.a, e.b);
    EXPECT_DOUBLE_EQ(e.d, static_cast<double>(e.a));
  }
}

TEST_F(FlightRecorderTest, ToJsonCarriesTypeNamesAndPayloads) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Record(FlightEventType::kQueryStart, 42, 5);
  rec.Record(FlightEventType::kBudgetTrip, 1000, 1, 12.5);
  const std::string json = rec.ToJson();
  EXPECT_NE(json.find("\"recorded\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"capacity\":4096"), std::string::npos) << json;
  EXPECT_NE(json.find("\"type\":\"query_start\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"type\":\"budget_trip\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"a\":42"), std::string::npos) << json;
  EXPECT_NE(json.find("\"d\":12.500"), std::string::npos) << json;
}

TEST_F(FlightRecorderTest, DumpToWritesTheSameShapeAsToJson) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Record(FlightEventType::kBudgetTrip, 3, 4096);
  char path[] = "/tmp/flightrec_dump_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  rec.DumpTo(fd);
  close(fd);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path);
  const std::string dumped = buffer.str();
  EXPECT_NE(dumped.find("\"recorded\":1"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\"type\":\"budget_trip\""), std::string::npos)
      << dumped;
  EXPECT_NE(dumped.find("\"a\":3"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\"b\":4096"), std::string::npos) << dumped;
}

// Stores through `p` with UBSan's null check switched off, so a null `p`
// takes a real hardware fault (SIGSEGV) instead of a UBSan abort in a
// -fsanitize=undefined -fno-sanitize-recover build.
__attribute__((noinline, no_sanitize("null"))) void StoreThrough(
    volatile int* p) {
  *p = 1;
}

// The acceptance test for the black box: a child process records a few
// events, installs the crash handler, and dies on a real SIGSEGV; the
// parent finds the ring dumped to disk and the child dead by the
// original signal. fork() rather than a gtest death test so the dump
// file's contents can be asserted on in detail.
TEST_F(FlightRecorderTest, CrashHandlerDumpsRingOnFatalSignal) {
  char path[] = "/tmp/flightrec_crash_XXXXXX";
  const int tmp_fd = mkstemp(path);
  ASSERT_GE(tmp_fd, 0);
  close(tmp_fd);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: seed the ring, arm the handler, crash for real.
    FlightRecorder& rec = FlightRecorder::Global();
    rec.Record(FlightEventType::kQueryStart, 0xdead, 10);
    rec.Record(FlightEventType::kSlowQuery, 0xdead, 2, 99.0);
    FlightRecorder::InstallCrashHandler(path);
    volatile int* volatile null_ptr = nullptr;
    StoreThrough(null_ptr);  // SIGSEGV.
    _exit(0);       // Unreachable.
  }

  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  // The handler re-raises with the default disposition, so the child
  // still dies by SIGSEGV (exit semantics preserved).
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGSEGV);

  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path);
  const std::string dumped = buffer.str();
  EXPECT_NE(dumped.find("\"recorded\":2"), std::string::npos) << dumped;
  EXPECT_NE(dumped.find("\"type\":\"query_start\""), std::string::npos)
      << dumped;
  EXPECT_NE(dumped.find("\"type\":\"slow_query\""), std::string::npos)
      << dumped;
  EXPECT_NE(dumped.find("\"a\":57005"), std::string::npos) << dumped;  // 0xdead
}

TEST_F(FlightRecorderTest, ResetEmptiesTheRing) {
  FlightRecorder& rec = FlightRecorder::Global();
  rec.Record(FlightEventType::kQueryStart);
  ASSERT_EQ(rec.recorded(), 1u);
  rec.Reset();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_NE(rec.ToJson().find("\"events\":[]"), std::string::npos);
}

}  // namespace
}  // namespace flexpath
