#include "common/metrics.h"

#include <cmath>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace flexpath {
namespace {

TEST(CounterTest, IncValueReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddMax) {
  Gauge g;
  g.Set(10);
  EXPECT_EQ(g.Value(), 10);
  g.Add(-3);
  EXPECT_EQ(g.Value(), 7);
  g.Max(5);  // Below current: no change.
  EXPECT_EQ(g.Value(), 7);
  g.Max(100);
  EXPECT_EQ(g.Value(), 100);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketingRoutesToInclusiveUpperEdge) {
  Histogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1).
  h.Observe(1.0);    // bucket 0: edges are inclusive.
  h.Observe(2.0);    // bucket 1.
  h.Observe(100.0);  // bucket 2.
  h.Observe(500.0);  // overflow bucket.

  HistogramSnapshot s = h.Snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);  // 3 edges + overflow.
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 1u);
  EXPECT_EQ(s.counts[3], 1u);
}

TEST(HistogramTest, SnapshotAggregates) {
  Histogram h({1.0, 10.0});
  h.Observe(0.5);
  h.Observe(4.0);
  h.Observe(7.5);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.sum, 12.0);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 7.5);
  EXPECT_DOUBLE_EQ(s.Mean(), 4.0);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h({1.0});
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
}

// /metrics renders quantiles from these snapshots, and every quantile it
// exposes must be finite: an empty histogram must yield clean zeros at
// every quantile — never NaN or a division artifact.
TEST(HistogramTest, EmptyQuantilesAreZeroAcrossTheRange) {
  Histogram h({1.0, 10.0});
  HistogramSnapshot s = h.Snapshot();
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    const double v = s.Quantile(q);
    EXPECT_DOUBLE_EQ(v, 0.0) << "q=" << q;
    EXPECT_FALSE(std::isnan(v)) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_FALSE(std::isnan(s.Mean()));
}

// A single sample must produce finite, monotone quantiles bracketed by
// its bucket — the smallest population the rate math ever sees.
TEST(HistogramTest, SingleSampleQuantilesStayInItsBucket) {
  Histogram h({10.0, 20.0, 30.0});
  h.Observe(15.0);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 1u);
  double prev = -1.0;
  for (double q : {0.0, 0.5, 0.9, 1.0}) {
    const double v = s.Quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_GE(v, 10.0) << "q=" << q;  // Bucket (10, 20] lower edge.
    EXPECT_LE(v, 20.0) << "q=" << q;  // Bucket upper edge.
    EXPECT_GE(v, prev) << "q=" << q;  // Monotone in q.
    prev = v;
  }
  EXPECT_DOUBLE_EQ(s.Mean(), 15.0);
}

// A single overflow-bucket sample interpolates between the top finite
// edge and the observed max — it must never run off to infinity.
TEST(HistogramTest, SingleOverflowSampleClampsToObservedMax) {
  Histogram h({1.0, 10.0});
  h.Observe(500.0);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 500.0);
  for (double q : {0.0, 0.5, 0.99}) {
    const double v = s.Quantile(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_GE(v, 10.0) << "q=" << q;
    EXPECT_LE(v, 500.0) << "q=" << q;
  }
}

// A sample below the first edge interpolates from the observed min, not
// from zero or negative territory.
TEST(HistogramTest, SingleSampleBelowFirstEdgeUsesObservedMin) {
  Histogram h({1.0});
  h.Observe(0.5);
  HistogramSnapshot s = h.Snapshot();
  for (double q : {0.0, 0.5, 1.0}) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, 0.5) << "q=" << q;
    EXPECT_LE(v, 1.0) << "q=" << q;
  }
}

TEST(HistogramTest, QuantileInterpolatesAndIsMonotonic) {
  Histogram h({10.0, 20.0, 30.0});
  // 10 observations spread evenly through bucket 1 (10, 20].
  for (int i = 0; i < 10; ++i) h.Observe(15.0);
  HistogramSnapshot s = h.Snapshot();
  // All mass in one bucket: every quantile lands inside its edges.
  const double p50 = s.Quantile(0.5);
  EXPECT_GE(p50, 10.0);
  EXPECT_LE(p50, 20.0);
  EXPECT_LE(s.Quantile(0.25), s.Quantile(0.75));
  EXPECT_LE(s.Quantile(0.0), s.Quantile(1.0));
}

TEST(HistogramTest, OverflowQuantileStaysWithinObservedRange) {
  Histogram h({1.0, 2.0});
  h.Observe(1000.0);
  const double p99 = h.Snapshot().Quantile(0.99);
  EXPECT_GE(p99, 2.0);      // At least the top finite edge...
  EXPECT_LE(p99, 1000.0);   // ...but never past what was observed.
}

TEST(HistogramTest, QuantileOfEmptyHistogramIsZero) {
  Histogram h({1.0, 2.0, 3.0});
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 0.0);
}

TEST(HistogramTest, QuantileAllMassInOneBucketStaysInsideItsEdges) {
  Histogram h({10.0, 20.0, 30.0});
  for (int i = 0; i < 100; ++i) h.Observe(25.0);
  HistogramSnapshot s = h.Snapshot();
  // Every quantile must land inside bucket (20, 30] — and never below
  // the observed min or above the observed max.
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = s.Quantile(q);
    EXPECT_GE(v, 20.0) << "q=" << q;
    EXPECT_LE(v, 30.0) << "q=" << q;
  }
}

TEST(HistogramTest, OverflowBucketInterpolatesTowardObservedMax) {
  Histogram h({1.0, 2.0});
  // Two overflow observations: the overflow bucket spans
  // [top finite edge=2, observed max=100].
  h.Observe(50.0);
  h.Observe(100.0);
  HistogramSnapshot s = h.Snapshot();
  const double p25 = s.Quantile(0.25);
  const double p100 = s.Quantile(1.0);
  EXPECT_GE(p25, 2.0);
  EXPECT_LE(p25, 100.0);
  EXPECT_LE(p25, p100);
  EXPECT_DOUBLE_EQ(p100, 100.0);  // q=1 interpolates to the far edge: max.
}

TEST(HistogramTest, QuantileClampsOutOfRangeArguments) {
  Histogram h({1.0});
  h.Observe(0.5);
  HistogramSnapshot s = h.Snapshot();
  EXPECT_DOUBLE_EQ(s.Quantile(-1.0), s.Quantile(0.0));
  EXPECT_DOUBLE_EQ(s.Quantile(2.0), s.Quantile(1.0));
}

TEST(MetricsThreadingTest, ConcurrentCounterIncsAllLand) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), static_cast<uint64_t>(kThreads) * kIncs);
}

TEST(MetricsThreadingTest, ConcurrentHistogramObservesAllLand) {
  Histogram h({1.0, 10.0, 100.0});
  constexpr int kThreads = 8;
  constexpr int kObs = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      // Each thread hits a different bucket so per-bucket counts are
      // checkable too.
      const double v = t % 2 == 0 ? 0.5 : 50.0;
      for (int i = 0; i < kObs; ++i) h.Observe(v);
    });
  }
  for (std::thread& t : threads) t.join();
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kObs);
  EXPECT_EQ(s.counts[0], static_cast<uint64_t>(kThreads) / 2 * kObs);
  EXPECT_EQ(s.counts[2], static_cast<uint64_t>(kThreads) / 2 * kObs);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 50.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Reset();
  HistogramSnapshot s = h.Snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.counts[0], 0u);
}

TEST(HistogramTest, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const std::vector<double> bounds = Histogram::DefaultLatencyBoundsMs();
  ASSERT_GE(bounds.size(), 2u);
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]) << "at index " << i;
  }
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.counter("test.counter");
  Counter* b = reg.counter("test.counter");
  EXPECT_EQ(a, b);
  EXPECT_NE(reg.counter("test.other"), a);
  EXPECT_EQ(reg.gauge("test.gauge"), reg.gauge("test.gauge"));
  EXPECT_EQ(reg.histogram("test.hist"), reg.histogram("test.hist"));
}

TEST(MetricsRegistryTest, SnapshotAndResetAll) {
  MetricsRegistry reg;
  reg.counter("c")->Inc(3);
  reg.gauge("g")->Set(-7);
  reg.histogram("h", {1.0})->Observe(0.5);

  MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 3u);
  EXPECT_EQ(snap.gauges.at("g"), -7);
  EXPECT_EQ(snap.histograms.at("h").count, 1u);

  reg.ResetAll();
  snap = reg.Snapshot();
  EXPECT_EQ(snap.counters.at("c"), 0u);  // Still registered, now zero.
  EXPECT_EQ(snap.gauges.at("g"), 0);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
}

TEST(MetricsRegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

TEST(MetricsJsonTest, RendersAllSections) {
  MetricsRegistry reg;
  reg.counter("queries")->Inc(2);
  reg.gauge("depth")->Set(5);
  reg.histogram("lat", {1.0, 10.0})->Observe(3.0);

  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"queries\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"depth\":5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bounds\""), std::string::npos) << json;
}

TEST(MetricsJsonTest, EscapesMetricNames) {
  // Metric names are normally library-chosen identifiers, but the
  // renderer must not produce invalid JSON if one ever carries a quote
  // or backslash (e.g. a name derived from user query text).
  MetricsRegistry reg;
  reg.counter("evil\"name")->Inc();
  reg.gauge("back\\slash")->Set(1);
  reg.histogram("tab\there", {1.0})->Observe(0.5);

  const std::string json = MetricsToJson(reg.Snapshot());
  EXPECT_NE(json.find("\"evil\\\"name\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"back\\\\slash\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tab\\there\""), std::string::npos) << json;
  // The raw unescaped forms must be gone.
  EXPECT_EQ(json.find("evil\"name"), std::string::npos) << json;
  EXPECT_EQ(json.find("back\\slash\""), std::string::npos) << json;
}

TEST(MetricsPrometheusTest, CountersAndGauges) {
  MetricsRegistry reg;
  reg.counter("query.count")->Inc(7);
  reg.gauge("exec.buckets_peak")->Set(3);

  const std::string prom = MetricsToPrometheus(reg.Snapshot());
  EXPECT_NE(prom.find("# HELP flexpath_query_count_total"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE flexpath_query_count_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("flexpath_query_count_total 7\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("# TYPE flexpath_exec_buckets_peak gauge"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("flexpath_exec_buckets_peak 3\n"), std::string::npos)
      << prom;
}

TEST(MetricsPrometheusTest, HistogramSeriesAreCumulativeWithInfBucket) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("query.latency_ms.dpo", {1.0, 10.0});
  h->Observe(0.5);   // bucket le=1.
  h->Observe(5.0);   // bucket le=10.
  h->Observe(99.0);  // overflow.

  const std::string prom = MetricsToPrometheus(reg.Snapshot());
  const std::string name = "flexpath_query_latency_ms_dpo";
  EXPECT_NE(prom.find("# TYPE " + name + " histogram"), std::string::npos)
      << prom;
  // Buckets are cumulative and end with +Inf == _count.
  EXPECT_NE(prom.find(name + "_bucket{le=\"1\"} 1\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find(name + "_bucket{le=\"10\"} 2\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find(name + "_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find(name + "_sum 104.5\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find(name + "_count 3\n"), std::string::npos) << prom;
}

TEST(MetricsPrometheusTest, FormatRoundTrips) {
  // Structural round-trip of the exposition format: every non-comment
  // line is "name[{le="x"}] value", every sample name appears after a
  // HELP and a TYPE line for its family, and histogram bucket counts
  // are non-decreasing.
  MetricsRegistry reg;
  reg.counter("a.count")->Inc(2);
  reg.gauge("b.depth")->Set(-4);
  Histogram* h = reg.histogram("c.lat_ms", {1.0, 2.0});
  h->Observe(0.5);
  h->Observe(1.5);

  const std::string prom = MetricsToPrometheus(reg.Snapshot());
  size_t pos = 0;
  int samples = 0;
  uint64_t last_bucket = 0;
  while (pos < prom.size()) {
    size_t eol = prom.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "unterminated line";
    const std::string line = prom.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      continue;
    }
    // Sample line: split on the last space.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    EXPECT_FALSE(value.empty()) << line;
    // Name must be sanitized: letters, digits, _, and an optional
    // {le="..."} suffix.
    const size_t brace = name.find('{');
    const std::string bare = name.substr(0, brace);
    for (char c : bare) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_')
          << line;
    }
    // The family (bare name minus histogram/counter suffixes) must have
    // HELP and TYPE lines.
    std::string family = bare;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = std::string(suffix).size();
      if (family.size() > n &&
          family.compare(family.size() - n, n, suffix) == 0 &&
          prom.find("# TYPE " + family.substr(0, family.size() - n) +
                    " histogram") != std::string::npos) {
        family = family.substr(0, family.size() - n);
        break;
      }
    }
    EXPECT_NE(prom.find("# HELP " + family + " "), std::string::npos)
        << "no HELP for " << line;
    EXPECT_NE(prom.find("# TYPE " + family + " "), std::string::npos)
        << "no TYPE for " << line;
    if (brace != std::string::npos) {
      const uint64_t count = std::stoull(value);
      EXPECT_GE(count, last_bucket) << "buckets must be cumulative: "
                                    << line;
      last_bucket = name.find("+Inf") != std::string::npos ? 0 : count;
    }
    ++samples;
  }
  EXPECT_EQ(samples, 1 + 1 + (3 + 2));  // counter + gauge + histogram.
}

TEST(MetricsPrometheusTest, BucketSeriesRoundTripAgainstSnapshot) {
  // Parse every _bucket{le=...} series back out of the exposition text
  // and check it against the snapshot it was rendered from: one sample
  // per edge plus +Inf, values non-decreasing in le-order, and the +Inf
  // sample exactly equal to _count. Empty buckets in the middle and an
  // all-overflow histogram are the cases where a non-cumulative or
  // off-by-one exporter would diverge.
  MetricsRegistry reg;
  Histogram* sparse = reg.histogram("q.sparse_ms", {1.0, 5.0, 25.0, 125.0});
  sparse->Observe(0.5);    // le=1.
  sparse->Observe(100.0);  // le=125: buckets 5 and 25 stay empty.
  sparse->Observe(9000.0); // overflow only.
  Histogram* overflow = reg.histogram("q.over_ms", {1.0});
  overflow->Observe(50.0);
  overflow->Observe(60.0);

  const MetricsSnapshot snap = reg.Snapshot();
  const std::string prom = MetricsToPrometheus(snap);

  for (const auto& [name, h] : snap.histograms) {
    std::string prom_name = "flexpath_";
    for (char c : name) prom_name += c == '.' ? '_' : c;

    std::vector<std::pair<std::string, uint64_t>> buckets;
    size_t pos = 0;
    const std::string needle = prom_name + "_bucket{le=\"";
    while ((pos = prom.find(needle, pos)) != std::string::npos) {
      const size_t le_start = pos + needle.size();
      const size_t le_end = prom.find('"', le_start);
      ASSERT_NE(le_end, std::string::npos);
      const size_t val_start = prom.find(' ', le_end) + 1;
      const size_t val_end = prom.find('\n', val_start);
      buckets.emplace_back(
          prom.substr(le_start, le_end - le_start),
          std::stoull(prom.substr(val_start, val_end - val_start)));
      pos = val_end;
    }

    // One sample per configured edge plus the +Inf closer, in le-order.
    ASSERT_EQ(buckets.size(), h.bounds.size() + 1) << prom_name;
    for (size_t i = 0; i < h.bounds.size(); ++i) {
      EXPECT_NE(buckets[i].first, "+Inf") << prom_name;
    }
    EXPECT_EQ(buckets.back().first, "+Inf") << prom_name;
    uint64_t expected_cumulative = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      expected_cumulative += h.counts[i];
      EXPECT_EQ(buckets[i].second, expected_cumulative)
          << prom_name << " le=" << buckets[i].first;
      if (i > 0) {
        EXPECT_GE(buckets[i].second, buckets[i - 1].second)
            << prom_name << " buckets must be monotone";
      }
    }
    // The closing bucket is the total: +Inf == _count, always.
    EXPECT_EQ(buckets.back().second, h.count) << prom_name;
    EXPECT_NE(prom.find(prom_name + "_count " + std::to_string(h.count)),
              std::string::npos)
        << prom;
  }
}

}  // namespace
}  // namespace flexpath
