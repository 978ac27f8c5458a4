#include "obs/query_log.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "rank/score.h"

namespace flexpath {
namespace {

QueryExecution SampleRecord() {
  QueryExecution r;
  r.ts_unix_s = 1754600000.25;
  r.query = "//item[.contains(\"gold\")]";
  r.fingerprint = 0xdeadbeefcafef00dULL;
  r.algorithm = "Hybrid";
  r.scheme = "structure-first";
  r.k = 10;
  r.threads = 4;
  r.latency_ms = 1.5;
  r.answers = 7;
  r.relaxations = 2;
  r.predicates_dropped = 1;
  r.penalty = 0.25;
  r.budget_exhausted = true;
  // All 64 bits set: catches any double round-trip in the parser, which
  // would silently truncate past 2^53.
  r.answers_digest = 0xffffffffffffffffULL;
  r.cpu_ms = 3.5;
  return r;
}

/// Every field but cpu_ms and counters.
void ExpectSameRun(const QueryExecution& out, const QueryExecution& in) {
  EXPECT_DOUBLE_EQ(out.ts_unix_s, in.ts_unix_s);
  EXPECT_EQ(out.query, in.query);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
  EXPECT_EQ(out.algorithm, in.algorithm);
  EXPECT_EQ(out.scheme, in.scheme);
  EXPECT_EQ(out.k, in.k);
  EXPECT_EQ(out.threads, in.threads);
  EXPECT_DOUBLE_EQ(out.latency_ms, in.latency_ms);
  EXPECT_EQ(out.answers, in.answers);
  EXPECT_EQ(out.relaxations, in.relaxations);
  EXPECT_EQ(out.predicates_dropped, in.predicates_dropped);
  EXPECT_DOUBLE_EQ(out.penalty, in.penalty);
  EXPECT_EQ(out.error, in.error);
  EXPECT_EQ(out.budget_exhausted, in.budget_exhausted);
  EXPECT_EQ(out.answers_digest, in.answers_digest);
}

std::string ToLine(const QueryExecution& e) {
  std::string line;
  AppendExecutionJson(&line, e);
  return line;
}

TEST(QueryLogLineTest, JsonRoundTrip) {
  QueryExecution in = SampleRecord();
  // A digest above 2^53 that is not all ones, and non-zero counters.
  in.answers_digest = (uint64_t{1} << 53) + 12345;
  uint64_t n = 1;
  ExecCounters::VisitFields(
      in.counters, [&n](const char*, uint64_t& value, ExecCounters::Agg) {
        value = (uint64_t{1} << 40) + n++;
      });
  const std::string line = ToLine(in);
  EXPECT_EQ(line.find('\n'), std::string::npos);  // One line per record.
  EXPECT_NE(line.find("\"fingerprint\":\"deadbeefcafef00d\""),
            std::string::npos)
      << line;

  QueryExecution out;
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(line, &out, &error)) << error;
  ExpectSameRun(out, in);
  EXPECT_DOUBLE_EQ(out.cpu_ms, in.cpu_ms);
  std::vector<uint64_t> want;
  std::vector<uint64_t> got;
  in.counters.ForEach([&want](const char*, uint64_t v) { want.push_back(v); });
  out.counters.ForEach([&got](const char*, uint64_t v) { got.push_back(v); });
  EXPECT_EQ(got, want);
  EXPECT_EQ(ToLine(out), line);  // Nothing lost: it renders back the same.
}

TEST(QueryLogLineTest, ErrorFlagRoundTrips) {
  QueryExecution in;
  in.query = "//a";
  in.error = true;
  QueryExecution out;
  ASSERT_TRUE(ParseQueryLogLine(ToLine(in), &out));
  EXPECT_TRUE(out.error);
}

TEST(QueryLogLineTest, EscapesSurviveRoundTrip) {
  QueryExecution in;
  in.query = "//a[.contains(\"x\\\"y\")]\twith\ncontrol\x01chars";
  const std::string line = ToLine(in);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  QueryExecution out;
  ASSERT_TRUE(ParseQueryLogLine(line, &out));
  EXPECT_EQ(out.query, in.query);
}

TEST(QueryLogLineTest, UnknownKeysAreSkipped) {
  QueryExecution out;
  ASSERT_TRUE(ParseQueryLogLine(
      "{\"query\":\"//a\",\"future_field\":\"x\",\"future_num\":1.5,"
      "\"future_obj\":{\"nested\":true},\"k\":3,\"cpu_ms\":2.5}",
      &out));
  EXPECT_EQ(out.query, "//a");
  EXPECT_EQ(out.k, 3u);
  EXPECT_DOUBLE_EQ(out.cpu_ms, 2.5);

  // A record as logs carried it before cpu_ms replaced the nested usage
  // object: the object is skipped like any unknown key, so old capture
  // logs still replay, with cpu_ms left at its zero default.
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(
      "{\"ts\":1754600000.25,\"query\":\"//item[.contains(\\\"gold\\\")]\","
      "\"fingerprint\":16045690984503111693,\"algorithm\":\"Hybrid\","
      "\"scheme\":\"structure-first\",\"k\":10,\"threads\":4,"
      "\"latency_ms\":1.5,\"answers\":7,\"relaxations\":2,"
      "\"predicates_dropped\":1,\"penalty\":0.25,\"budget_exhausted\":true,"
      "\"answers_digest\":18446744073709551615,"
      "\"usage\":{\"cpu_ms\":3.5,\"tuples_scanned\":100,"
      "\"tuples_produced\":42,\"bytes_touched\":4096,"
      "\"rounds_executed\":3,\"rounds_pruned\":2}}",
      &out, &error))
      << error;
  ExpectSameRun(out, SampleRecord());
  EXPECT_DOUBLE_EQ(out.cpu_ms, 0.0);
}

// A line verbatim as flexpath_cli --query-log wrote it while the log had
// its own record type (QueryLogRecordToJson): a decimal fingerprint and
// no counters object. It still yields every replay input.
TEST(QueryLogLineTest, LegacyLineYieldsTheReplayInputs) {
  constexpr const char* kLine =
      R"({"ts":1792446355.9594848,"query":"//item[./name and .contains(\"gold\")]",)"
      R"("fingerprint":99002651350665346,"algorithm":"DPO",)"
      R"("scheme":"structure-first","k":5,"threads":2,"latency_ms":0.484749,)"
      R"("answers":5,"relaxations":0,"predicates_dropped":0,"penalty":0,)"
      R"("budget_exhausted":false,"answers_digest":13686399723756637719,)"
      R"("cpu_ms":0.44500300000004245})";
  QueryExecution out;
  std::string error;
  ASSERT_TRUE(ParseQueryLogLine(kLine, &out, &error)) << error;
  EXPECT_EQ(out.query, "//item[./name and .contains(\"gold\")]");
  EXPECT_EQ(out.algorithm, "DPO");
  EXPECT_EQ(out.scheme, "structure-first");
  EXPECT_EQ(out.k, 5u);
  EXPECT_EQ(out.threads, 2u);
  EXPECT_DOUBLE_EQ(out.latency_ms, 0.484749);
  EXPECT_EQ(out.answers_digest, 13686399723756637719ULL);
  EXPECT_EQ(out.fingerprint, 99002651350665346ULL);
  EXPECT_EQ(out.answers, 5u);
  EXPECT_FALSE(out.error);
}

TEST(QueryLogLineTest, MalformedLinesAreRejected) {
  QueryExecution out;
  std::string error;
  EXPECT_FALSE(ParseQueryLogLine("", &out, &error));
  EXPECT_FALSE(ParseQueryLogLine("not json", &out, &error));
  EXPECT_FALSE(ParseQueryLogLine("{\"query\":\"unterminated", &out, &error));
  EXPECT_FALSE(ParseQueryLogLine("{\"k\":1}trailing", &out, &error));
  EXPECT_FALSE(error.empty());
}

class QueryLogFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "query_log_test_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(QueryLogFileTest, WriterAppendsAndReaderRoundTrips) {
  auto writer = QueryLogWriter::Open(path_);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  QueryExecution r = SampleRecord();
  (*writer)->Append(r);
  r.query = "//person[./name]";
  r.answers_digest = 42;
  (*writer)->Append(r);
  EXPECT_EQ((*writer)->records_written(), 2u);

  size_t truncated = 9;
  auto records = ReadQueryLog(path_, &truncated);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(truncated, 0u);
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].query, SampleRecord().query);
  EXPECT_EQ((*records)[1].query, "//person[./name]");
  EXPECT_EQ((*records)[1].answers_digest, 42u);
}

TEST_F(QueryLogFileTest, ConcurrentAppendsNeverInterleave) {
  auto writer = QueryLogWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&writer, t] {
      QueryExecution r;
      r.query = "//t" + std::to_string(t);
      for (int i = 0; i < 50; ++i) (*writer)->Append(r);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ((*writer)->records_written(), 200u);
  auto records = ReadQueryLog(path_);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 200u);
}

TEST_F(QueryLogFileTest, TrailingPartialLineIsDroppedNotFatal) {
  auto writer = QueryLogWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  (*writer)->Append(SampleRecord());
  {
    // Simulate a crash mid-append: a final line with no newline.
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << "{\"query\":\"cut off";
  }
  size_t truncated = 0;
  auto records = ReadQueryLog(path_, &truncated);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 1u);
  EXPECT_EQ(truncated, 1u);
}

TEST_F(QueryLogFileTest, CorruptMiddleLineFailsTheRead) {
  auto writer = QueryLogWriter::Open(path_);
  ASSERT_TRUE(writer.ok());
  (*writer)->Append(SampleRecord());
  {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << "garbage line\n";
  }
  (*writer)->Append(SampleRecord());
  auto records = ReadQueryLog(path_);
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kParseError);
}

TEST_F(QueryLogFileTest, MissingFileIsNotFound) {
  auto records = ReadQueryLog(path_ + ".does-not-exist");
  EXPECT_FALSE(records.ok());
  EXPECT_EQ(records.status().code(), StatusCode::kNotFound);
}

TEST(AnswersDigestTest, OrderAndContentSensitive) {
  RankedAnswer a{{DocId{0}, NodeId{1}}, {1.0, 0.5}};
  RankedAnswer b{{DocId{0}, NodeId{2}}, {1.0, 0.25}};
  const uint64_t ab = AnswersDigest({a, b});
  const uint64_t ba = AnswersDigest({b, a});
  EXPECT_NE(ab, ba);  // Rank order matters.
  EXPECT_EQ(ab, AnswersDigest({a, b}));  // Deterministic.
  EXPECT_NE(ab, AnswersDigest({a}));     // Prefix digests differently.
  EXPECT_NE(AnswersDigest({}), 0u);

  RankedAnswer a_rescored = a;
  a_rescored.score.ks = 0.75;
  EXPECT_NE(ab, AnswersDigest({a_rescored, b}));  // Scores matter.
}

}  // namespace
}  // namespace flexpath
