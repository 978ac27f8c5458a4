#ifndef FLEXPATH_OBS_METRICS_HISTORY_H_
#define FLEXPATH_OBS_METRICS_HISTORY_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <thread>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace flexpath {

struct MetricsHistoryOptions {
  /// Sampling period of the background snapshotter.
  double interval_s = 1.0;
  /// Ring capacity per metric: with the 1s default interval, 10 minutes
  /// of history per metric.
  size_t capacity = 600;
};

/// Windowed view of one metric's history. For counters (and histogram
/// count/sum series) `delta` is last-minus-first inside the window and
/// `rate_per_s` is that delta over the covered seconds; for gauges the
/// delta/rate are level changes, and `last` is the current level. All
/// rates are 0 — never NaN or inf — when the window holds fewer than two
/// samples or spans zero seconds.
struct SeriesWindow {
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  double last = 0.0;      ///< Most recent sampled value (hist: count).
  double delta = 0.0;     ///< last - first-in-window (counters: >= 0).
  double rate_per_s = 0.0;
  double seconds = 0.0;   ///< Seconds the window actually covers.
  size_t samples = 0;     ///< Samples inside the window.
  /// Histogram series only: the observed-value sum alongside the count.
  double sum_last = 0.0;
  double sum_delta = 0.0;
  double sum_rate_per_s = 0.0;
};

/// The headline rates a dashboard (or the CLI :watch command) wants,
/// derived from the standard pipeline metrics. Fields are 0 when the
/// underlying series has no traffic in the window.
struct DerivedRates {
  double qps = 0.0;                 ///< rate(query.count)
  double errors_per_s = 0.0;        ///< rate(query.errors)
  double rounds_pruned_per_s = 0.0; ///< rate(query.rounds_pruned_static)
  double cpu_ms_per_s = 0.0;        ///< sum-rate(query.cpu_ms)
  double latency_mean_ms = 0.0;     ///< Δsum/Δcount over query.latency_ms.*
};

/// Turns the registry's point-in-time counters into trends: a background
/// thread (or explicit SampleNow() calls) appends a timestamped sample of
/// every metric to fixed-size per-metric rings, and Window() computes
/// deltas and per-second rates over the trailing N seconds. Entirely
/// in-process — no external collector — and inert until Start() or the
/// first SampleNow(): construction allocates nothing and starts no
/// thread.
class MetricsHistory {
 public:
  explicit MetricsHistory(MetricsRegistry* registry = nullptr,
                          MetricsHistoryOptions opts = {});
  ~MetricsHistory();

  MetricsHistory(const MetricsHistory&) = delete;
  MetricsHistory& operator=(const MetricsHistory&) = delete;

  /// Spawns the sampler thread (one sample immediately, then every
  /// interval). No-op when already running.
  void Start();

  /// Stops and joins the sampler thread. Idempotent; rings are kept.
  void Stop();

  bool running() const;

  /// Takes one sample now, on the calling thread. The deterministic path
  /// tests use; also what the sampler thread calls.
  void SampleNow();

  /// Samples taken so far (across all metrics; monotone).
  uint64_t samples() const;

  /// Windowed deltas and rates over the trailing `window_s` seconds,
  /// keyed by metric name (histograms under their base name).
  std::map<std::string, SeriesWindow> Window(double window_s) const;

  /// The headline rates over the trailing `window_s` seconds.
  DerivedRates Derived(double window_s) const;

  /// One JSON object:
  ///   {"interval_s":..,"capacity":..,"samples":..,"window_s":..,
  ///    "derived":{"qps":..,"errors_per_s":..,
  ///               "rounds_pruned_per_s":..,"cpu_ms_per_s":..,
  ///               "latency_mean_ms":..},
  ///    "series":{"query.count":{"kind":"counter","last":..,"delta":..,
  ///              "rate_per_s":..,"seconds":..,"samples":..}, ...}}
  std::string ToJson(double window_s) const;

  const MetricsHistoryOptions& options() const { return opts_; }

 private:
  struct Point {
    double ts_s = 0.0;    ///< Steady-clock seconds (monotonic).
    double value = 0.0;   ///< Counter/gauge value; histogram count.
    double sum = 0.0;     ///< Histogram observed-value sum; else 0.
  };
  struct Series {
    SeriesWindow::Kind kind = SeriesWindow::Kind::kCounter;
    std::deque<Point> points;
  };

  void SamplerLoop();
  /// Appends one point. `prev_ts` is the previous sample's timestamp (0
  /// on the first sample): a series first seen on a later sample gets a
  /// synthetic zero point there, because registry metrics are created
  /// lazily on first use — the value genuinely was 0 one sample ago, and
  /// without the baseline the traffic that created the metric would never
  /// show up in any window's delta.
  void AppendLocked(const std::string& name, SeriesWindow::Kind kind,
                    Point p, double prev_ts) REQUIRES(mu_);
  static SeriesWindow WindowOf(const Series& series, double cutoff_ts);

  MetricsRegistry* registry_;  ///< Defaults to MetricsRegistry::Global().
  MetricsHistoryOptions opts_;
  std::thread thread_;
  mutable Mutex mu_;
  CondVar stop_cv_;
  bool running_ GUARDED_BY(mu_) = false;
  bool stop_requested_ GUARDED_BY(mu_) = false;
  uint64_t samples_ GUARDED_BY(mu_) = 0;
  double last_sample_ts_ GUARDED_BY(mu_) = 0.0;
  std::map<std::string, Series> series_ GUARDED_BY(mu_);
};

}  // namespace flexpath

#endif  // FLEXPATH_OBS_METRICS_HISTORY_H_
