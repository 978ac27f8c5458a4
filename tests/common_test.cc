#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/lru_cache.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"

namespace flexpath {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::ParseError("bad token");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(st.message(), "bad token");
  EXPECT_EQ(st.ToString(), "ParseError: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kParseError), "ParseError");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kUnimplemented),
               "Unimplemented");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

TEST(ReturnIfErrorTest, PropagatesError) {
  auto fails = []() { return Status::Internal("boom"); };
  auto wrapper = [&]() -> Status {
    FLEXPATH_RETURN_IF_ERROR(fails());
    return Status::OK();
  };
  EXPECT_EQ(wrapper().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicBySeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u) << "all values in [-3,3] should appear";
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ZipfSkewsTowardLowRanks) {
  Rng rng(17);
  int low = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.Zipf(100, 1.0) < 10) ++low;
  }
  // The first 10 of 100 Zipf(1.0) ranks carry ~56% of the mass.
  EXPECT_GT(low, n / 3);
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("XML Streaming"), "xml streaming");
  EXPECT_EQ(ToLowerAscii(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("contains(...)", "contains"));
  EXPECT_FALSE(StartsWith("con", "contains"));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, ParseUint64AcceptsOnlyDecimalsInRange) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint64("0", 0, 65535, &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint64("65535", 0, 65535, &v));
  EXPECT_EQ(v, 65535u);
  EXPECT_TRUE(ParseUint64("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "65536", "70000", "abc", "-1", "+1", " 1",
                          "1 ", "1e3", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(ParseUint64(bad, 0, 65535, &v)) << bad;
  }
  EXPECT_FALSE(ParseUint64("18446744073709551616", 0, UINT64_MAX, &v));
  EXPECT_FALSE(ParseUint64("3", 4, 10, &v));
  EXPECT_EQ(v, 7u);
}

TEST(StringUtilTest, ParseNonNegativeAcceptsOnlyPlainNumbers) {
  double v = -1.0;
  EXPECT_TRUE(ParseNonNegative("0", &v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(ParseNonNegative("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseNonNegative(".5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(ParseNonNegative("3.", &v));
  EXPECT_EQ(v, 3.0);
  v = -1.0;
  for (const char* bad : {"", ".", "abc", "-1", "+1", "1.2.3", "1e3", "inf",
                          "nan", " 1", "1ms"}) {
    EXPECT_FALSE(ParseNonNegative(bad, &v)) << bad;
  }
  EXPECT_FALSE(ParseNonNegative(std::string(400, '9'), &v));
  EXPECT_EQ(v, -1.0);
}

TEST(StringUtilTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b&c>\"d'"), "a&lt;b&amp;c&gt;&quot;d&apos;");
}

TEST(LruByteCacheTest, LruEvictsLeastRecentlyUsedUnderTinyBudget) {
  LruByteCache<int, int> cache(/*budget_bytes=*/100);
  auto put = [&](int key, size_t bytes) {
    return cache.Put(key, std::make_shared<const int>(key), bytes);
  };
  EXPECT_TRUE(put(1, 40));
  EXPECT_TRUE(put(2, 40));
  EXPECT_NE(cache.Get(1), nullptr);  // refresh 1: now 2 is the LRU entry
  EXPECT_TRUE(put(3, 40));           // 120 > 100: evict 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
  EXPECT_NE(cache.Get(3), nullptr);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.bytes(), 80u);
  EXPECT_EQ(cache.evictions(), 1u);

  // An entry larger than the whole budget is refused outright.
  EXPECT_FALSE(put(4, 101));
  EXPECT_EQ(cache.size(), 2u);

  // Re-putting a key recharges it and makes it the most recent, so the
  // growth evicts the other entry.
  EXPECT_TRUE(put(1, 70));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), 70u);
  EXPECT_EQ(cache.Get(3), nullptr);
  EXPECT_NE(cache.Get(1), nullptr);
}

TEST(LruByteCacheTest, EvictionDoesNotInvalidateHandedOutEntries) {
  LruByteCache<int, std::vector<int>> cache(100);
  cache.Put(1, std::make_shared<const std::vector<int>>(3, 7), 60);
  std::shared_ptr<const std::vector<int>> held = cache.Get(1);
  cache.Put(2, std::make_shared<const std::vector<int>>(3, 9), 60);  // evicts 1
  EXPECT_EQ(cache.Get(1), nullptr);
  ASSERT_NE(held, nullptr);
  EXPECT_EQ((*held)[0], 7);  // still alive and intact
}

}  // namespace
}  // namespace flexpath
