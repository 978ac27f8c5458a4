#include "obs/metrics_history.h"

#include <algorithm>
#include <chrono>

#include "common/json_util.h"

namespace flexpath {

namespace {

double SteadyNowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* KindName(SeriesWindow::Kind kind) {
  switch (kind) {
    case SeriesWindow::Kind::kCounter:
      return "counter";
    case SeriesWindow::Kind::kGauge:
      return "gauge";
    case SeriesWindow::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

/// delta / seconds with the zero-traffic guard: a window that covers no
/// time (or a single sample) has rate 0, never NaN or inf.
double SafeRate(double delta, double seconds) {
  return seconds > 0.0 ? delta / seconds : 0.0;
}

}  // namespace

MetricsHistory::MetricsHistory(MetricsRegistry* registry,
                               MetricsHistoryOptions opts)
    : registry_(registry != nullptr ? registry : &MetricsRegistry::Global()),
      opts_(opts) {
  if (opts_.interval_s <= 0.0) opts_.interval_s = 1.0;
  if (opts_.capacity < 2) opts_.capacity = 2;
}

MetricsHistory::~MetricsHistory() { Stop(); }

void MetricsHistory::Start() {
  {
    MutexLock lock(mu_);
    if (running_) return;
    running_ = true;
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { SamplerLoop(); });
}

void MetricsHistory::Stop() {
  {
    MutexLock lock(mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  stop_cv_.NotifyAll();
  if (thread_.joinable()) thread_.join();
  MutexLock lock(mu_);
  running_ = false;
}

bool MetricsHistory::running() const {
  MutexLock lock(mu_);
  return running_;
}

void MetricsHistory::SamplerLoop() {
  const auto interval = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::duration<double>(opts_.interval_s));
  for (;;) {
    SampleNow();
    const auto deadline = std::chrono::steady_clock::now() + interval;
    MutexLock lock(mu_);
    // Explicit wait loop (not a predicate overload) so the guarded read
    // of stop_requested_ happens where the analysis sees mu_ held.
    while (!stop_requested_) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= deadline) break;
      stop_cv_.WaitFor(lock, deadline - now);
    }
    if (stop_requested_) return;
  }
}

void MetricsHistory::SampleNow() {
  // Snapshot outside the history lock: the registry has its own mutex,
  // and holding both isn't needed.
  const MetricsSnapshot snap = registry_->Snapshot();
  const double now = SteadyNowS();
  MutexLock lock(mu_);
  const double prev_ts = samples_ > 0 ? last_sample_ts_ : 0.0;
  ++samples_;
  last_sample_ts_ = now;
  for (const auto& [name, value] : snap.counters) {
    AppendLocked(name, SeriesWindow::Kind::kCounter,
                 {now, static_cast<double>(value), 0.0}, prev_ts);
  }
  for (const auto& [name, value] : snap.gauges) {
    AppendLocked(name, SeriesWindow::Kind::kGauge,
                 {now, static_cast<double>(value), 0.0}, prev_ts);
  }
  for (const auto& [name, h] : snap.histograms) {
    AppendLocked(name, SeriesWindow::Kind::kHistogram,
                 {now, static_cast<double>(h.count), h.sum}, prev_ts);
  }
}

void MetricsHistory::AppendLocked(const std::string& name,
                                  SeriesWindow::Kind kind, Point p,
                                  double prev_ts) {
  Series& series = series_[name];
  series.kind = kind;
  if (series.points.empty() && prev_ts > 0.0 &&
      kind != SeriesWindow::Kind::kGauge) {
    // Lazily-created counter/histogram: it did not exist at the previous
    // sample, so its value there was 0. Without this baseline the window
    // delta would start at the already-incremented first reading and the
    // traffic that created the metric would never register in any rate.
    series.points.push_back({prev_ts, 0.0, 0.0});
  }
  series.points.push_back(p);
  while (series.points.size() > opts_.capacity) series.points.pop_front();
}

uint64_t MetricsHistory::samples() const {
  MutexLock lock(mu_);
  return samples_;
}

SeriesWindow MetricsHistory::WindowOf(const Series& series,
                                      double cutoff_ts) {
  SeriesWindow w;
  w.kind = series.kind;
  if (series.points.empty()) return w;
  const Point& last = series.points.back();
  w.last = last.value;
  w.sum_last = last.sum;
  // First point at or after the cutoff; the deque is time-ordered.
  const auto first = std::find_if(
      series.points.begin(), series.points.end(),
      [cutoff_ts](const Point& p) { return p.ts_s >= cutoff_ts; });
  w.samples = static_cast<size_t>(series.points.end() - first);
  if (w.samples < 2) return w;  // One sample has no delta and rate 0.
  w.seconds = last.ts_s - first->ts_s;
  w.delta = last.value - first->value;
  w.sum_delta = last.sum - first->sum;
  if (series.kind != SeriesWindow::Kind::kGauge) {
    // Counters are monotone; a negative delta means the registry was
    // reset mid-window. Clamp rather than report a negative rate.
    w.delta = std::max(0.0, w.delta);
    w.sum_delta = std::max(0.0, w.sum_delta);
  }
  w.rate_per_s = SafeRate(w.delta, w.seconds);
  w.sum_rate_per_s = SafeRate(w.sum_delta, w.seconds);
  return w;
}

std::map<std::string, SeriesWindow> MetricsHistory::Window(
    double window_s) const {
  const double cutoff = SteadyNowS() - std::max(0.0, window_s);
  MutexLock lock(mu_);
  std::map<std::string, SeriesWindow> out;
  for (const auto& [name, series] : series_) {
    out[name] = WindowOf(series, cutoff);
  }
  return out;
}

DerivedRates MetricsHistory::Derived(double window_s) const {
  const std::map<std::string, SeriesWindow> windows = Window(window_s);
  const auto get = [&windows](const char* name) -> SeriesWindow {
    const auto it = windows.find(name);
    return it == windows.end() ? SeriesWindow{} : it->second;
  };
  DerivedRates rates;
  rates.qps = get("query.count").rate_per_s;
  rates.errors_per_s = get("query.errors").rate_per_s;
  rates.rounds_pruned_per_s = get("query.rounds_pruned_static").rate_per_s;
  rates.cpu_ms_per_s = get("query.cpu_ms").sum_rate_per_s;
  // Mean latency over the window, across the per-algorithm histograms.
  double lat_count = 0.0;
  double lat_sum = 0.0;
  for (const char* name :
       {"query.latency_ms.dpo", "query.latency_ms.sso",
        "query.latency_ms.hybrid"}) {
    const SeriesWindow w = get(name);
    lat_count += w.delta;
    lat_sum += w.sum_delta;
  }
  rates.latency_mean_ms = lat_count > 0.0 ? lat_sum / lat_count : 0.0;
  return rates;
}

std::string MetricsHistory::ToJson(double window_s) const {
  const DerivedRates rates = Derived(window_s);
  const std::map<std::string, SeriesWindow> windows = Window(window_s);
  std::string out = "{\"interval_s\":" + FormatDouble(opts_.interval_s);
  out += ",\"capacity\":" + std::to_string(opts_.capacity);
  out += ",\"samples\":" + std::to_string(samples());
  out += ",\"window_s\":" + FormatDouble(window_s);
  out += ",\"derived\":{\"qps\":" + FormatDouble(rates.qps);
  out += ",\"errors_per_s\":" + FormatDouble(rates.errors_per_s);
  out += ",\"rounds_pruned_per_s\":" +
         FormatDouble(rates.rounds_pruned_per_s);
  out += ",\"cpu_ms_per_s\":" + FormatDouble(rates.cpu_ms_per_s);
  out += ",\"latency_mean_ms\":" + FormatDouble(rates.latency_mean_ms);
  out += "},\"series\":{";
  bool first = true;
  for (const auto& [name, w] : windows) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += JsonEscape(name);
    out += "\":{\"kind\":\"";
    out += KindName(w.kind);
    out += "\",\"last\":" + FormatDouble(w.last);
    out += ",\"delta\":" + FormatDouble(w.delta);
    out += ",\"rate_per_s\":" + FormatDouble(w.rate_per_s);
    out += ",\"seconds\":" + FormatDouble(w.seconds);
    out += ",\"samples\":" + std::to_string(w.samples);
    if (w.kind == SeriesWindow::Kind::kHistogram) {
      out += ",\"sum_last\":" + FormatDouble(w.sum_last);
      out += ",\"sum_delta\":" + FormatDouble(w.sum_delta);
      out += ",\"sum_rate_per_s\":" + FormatDouble(w.sum_rate_per_s);
    }
    out += '}';
  }
  out += "}}";
  return out;
}

}  // namespace flexpath
