#include "obs/metrics_history.h"

#include <chrono>
#include <cmath>
#include <thread>

#include <gtest/gtest.h>

#include "common/metrics.h"

namespace flexpath {
namespace {

TEST(MetricsHistoryTest, ConstructionIsInert) {
  MetricsRegistry registry;
  MetricsHistory history(&registry);
  EXPECT_FALSE(history.running());
  EXPECT_EQ(history.samples(), 0u);
  EXPECT_TRUE(history.Window(60.0).empty());
}

TEST(MetricsHistoryTest, CounterDeltaAndRate) {
  MetricsRegistry registry;
  Counter* c = registry.counter("query.count");
  MetricsHistory history(&registry);
  c->Inc(5);
  history.SampleNow();
  c->Inc(3);
  history.SampleNow();

  const auto windows = history.Window(3600.0);
  const auto it = windows.find("query.count");
  ASSERT_NE(it, windows.end());
  EXPECT_EQ(it->second.kind, SeriesWindow::Kind::kCounter);
  EXPECT_DOUBLE_EQ(it->second.last, 8.0);
  EXPECT_DOUBLE_EQ(it->second.delta, 3.0);
  EXPECT_EQ(it->second.samples, 2u);
  EXPECT_TRUE(std::isfinite(it->second.rate_per_s));
  EXPECT_GE(it->second.rate_per_s, 0.0);
}

TEST(MetricsHistoryTest, ZeroTrafficWindowHasZeroRateNotNan) {
  MetricsRegistry registry;
  Counter* c = registry.counter("query.count");
  c->Inc(100);  // Traffic before the sampler ever ran.
  MetricsHistory history(&registry);
  history.SampleNow();
  history.SampleNow();  // No increments between samples.

  const auto windows = history.Window(3600.0);
  const SeriesWindow& w = windows.at("query.count");
  EXPECT_DOUBLE_EQ(w.delta, 0.0);
  EXPECT_DOUBLE_EQ(w.rate_per_s, 0.0);
  EXPECT_FALSE(std::isnan(w.rate_per_s));
  EXPECT_TRUE(std::isfinite(w.rate_per_s));

  const DerivedRates rates = history.Derived(3600.0);
  EXPECT_DOUBLE_EQ(rates.qps, 0.0);
  EXPECT_DOUBLE_EQ(rates.latency_mean_ms, 0.0);
  EXPECT_TRUE(std::isfinite(rates.cpu_ms_per_s));
}

TEST(MetricsHistoryTest, SingleSampleWindowHasNoDelta) {
  MetricsRegistry registry;
  registry.counter("query.count")->Inc(7);
  MetricsHistory history(&registry);
  history.SampleNow();
  const SeriesWindow w = history.Window(3600.0).at("query.count");
  EXPECT_EQ(w.samples, 1u);
  EXPECT_DOUBLE_EQ(w.delta, 0.0);
  EXPECT_DOUBLE_EQ(w.rate_per_s, 0.0);
  EXPECT_DOUBLE_EQ(w.last, 7.0);
}

TEST(MetricsHistoryTest, LazilyCreatedCounterGetsZeroBaseline) {
  MetricsRegistry registry;
  MetricsHistory history(&registry);
  history.SampleNow();  // Counter does not exist yet.
  // First use creates the metric mid-run — the traffic that created it
  // must still show up as a delta.
  registry.counter("query.count")->Inc(3);
  history.SampleNow();
  const SeriesWindow w = history.Window(3600.0).at("query.count");
  EXPECT_DOUBLE_EQ(w.delta, 3.0);
  EXPECT_GE(w.samples, 2u);
}

TEST(MetricsHistoryTest, CounterResetClampsToZeroDelta) {
  MetricsRegistry registry;
  Counter* c = registry.counter("query.count");
  MetricsHistory history(&registry);
  c->Inc(50);
  history.SampleNow();
  c->Reset();  // Registry reset mid-window.
  history.SampleNow();
  const SeriesWindow w = history.Window(3600.0).at("query.count");
  EXPECT_DOUBLE_EQ(w.delta, 0.0);  // Clamped, not -50.
  EXPECT_GE(w.rate_per_s, 0.0);
}

TEST(MetricsHistoryTest, GaugeDeltaMayGoNegative) {
  MetricsRegistry registry;
  Gauge* g = registry.gauge("exec.buckets_live");
  MetricsHistory history(&registry);
  g->Set(10);
  history.SampleNow();
  g->Set(4);
  history.SampleNow();
  const SeriesWindow w = history.Window(3600.0).at("exec.buckets_live");
  EXPECT_EQ(w.kind, SeriesWindow::Kind::kGauge);
  EXPECT_DOUBLE_EQ(w.last, 4.0);
  EXPECT_DOUBLE_EQ(w.delta, -6.0);
}

TEST(MetricsHistoryTest, HistogramTracksCountAndSum) {
  MetricsRegistry registry;
  Histogram* h = registry.histogram("query.latency_ms.dpo");
  MetricsHistory history(&registry);
  h->Observe(2.0);
  history.SampleNow();
  h->Observe(4.0);
  h->Observe(6.0);
  history.SampleNow();
  const SeriesWindow w = history.Window(3600.0).at("query.latency_ms.dpo");
  EXPECT_EQ(w.kind, SeriesWindow::Kind::kHistogram);
  EXPECT_DOUBLE_EQ(w.last, 3.0);       // Count.
  EXPECT_DOUBLE_EQ(w.delta, 2.0);      // Two new observations.
  EXPECT_DOUBLE_EQ(w.sum_delta, 10.0); // 4 + 6.
}

TEST(MetricsHistoryTest, DerivedRatesFromStandardMetrics) {
  MetricsRegistry registry;
  Counter* queries = registry.counter("query.count");
  Histogram* lat = registry.histogram("query.latency_ms.hybrid");
  MetricsHistory history(&registry);
  history.SampleNow();
  queries->Inc(10);
  lat->Observe(5.0);
  lat->Observe(15.0);
  history.SampleNow();

  const DerivedRates rates = history.Derived(3600.0);
  EXPECT_GT(rates.qps, 0.0);
  EXPECT_DOUBLE_EQ(rates.latency_mean_ms, 10.0); // (5 + 15) / 2.
}

TEST(MetricsHistoryTest, CapacityBoundsEachSeries) {
  MetricsRegistry registry;
  Counter* c = registry.counter("query.count");
  MetricsHistoryOptions opts;
  opts.capacity = 4;
  MetricsHistory history(&registry, opts);
  for (int i = 0; i < 10; ++i) {
    c->Inc();
    history.SampleNow();
  }
  EXPECT_EQ(history.samples(), 10u);
  // The window sees at most `capacity` points.
  const SeriesWindow w = history.Window(3600.0).at("query.count");
  EXPECT_LE(w.samples, 4u);
  EXPECT_DOUBLE_EQ(w.last, 10.0);
}

TEST(MetricsHistoryTest, ToJsonCarriesDerivedAndSeries) {
  MetricsRegistry registry;
  registry.counter("query.count")->Inc(2);
  MetricsHistory history(&registry);
  history.SampleNow();
  history.SampleNow();
  const std::string json = history.ToJson(60.0);
  EXPECT_NE(json.find("\"derived\""), std::string::npos);
  EXPECT_NE(json.find("\"qps\""), std::string::npos);
  EXPECT_NE(json.find("\"query.count\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(MetricsHistoryTest, BackgroundSamplerStartsAndStops) {
  MetricsRegistry registry;
  registry.counter("query.count")->Inc();
  MetricsHistoryOptions opts;
  opts.interval_s = 0.01;
  MetricsHistory history(&registry, opts);
  history.Start();
  EXPECT_TRUE(history.running());
  history.Start();  // Idempotent.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (history.samples() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(history.samples(), 3u);
  history.Stop();
  EXPECT_FALSE(history.running());
  history.Stop();  // Idempotent.
  const uint64_t frozen = history.samples();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(history.samples(), frozen);
}

}  // namespace
}  // namespace flexpath
