#include "obs/query_stats.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/json_util.h"

namespace flexpath {

namespace {

/// Order-insensitive canonical rendering of the subtree rooted at `var`.
/// Mirrors Tpq::CanonicalString but renders tags by name so the key is
/// stable across corpora with different interning orders.
std::string ShapeSubtree(const Tpq& q, VarId var, const TagDict& dict,
                         bool is_root) {
  const TpqNode& n = q.node(var);
  std::string out = "(";
  out += is_root ? 'r' : (q.AxisOf(var) == Axis::kChild ? 'c' : 'd');
  out += ':';
  out += n.tag == kInvalidTag ? "*" : dict.Name(n.tag);
  if (var == q.distinguished()) out += '!';
  std::vector<std::string> preds;
  // Sequential appends: GCC 12's -Wrestrict misfires on "C" + ToString().
  for (const FtExpr& e : n.contains) {
    std::string pr = "C";
    pr += e.ToString();
    preds.push_back(std::move(pr));
  }
  for (const AttrPred& a : n.attr_preds) {
    std::string pr = "A";
    pr += a.ToString(&dict);
    preds.push_back(std::move(pr));
  }
  std::vector<std::string> kids;
  for (VarId c : q.Children(var)) {
    kids.push_back(ShapeSubtree(q, c, dict, false));
  }
  std::sort(preds.begin(), preds.end());
  std::sort(kids.begin(), kids.end());
  for (const std::string& p : preds) out += p;
  for (const std::string& k : kids) out += k;
  out += ')';
  return out;
}

uint64_t Fnv1a64(std::string_view s) {
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void AppendHistogramJson(std::string* out, const HistogramSnapshot& h) {
  *out += "{\"count\":" + std::to_string(h.count);
  *out += ",\"sum\":" + FormatDouble(h.sum);
  *out += ",\"mean\":" + FormatDouble(h.Mean());
  *out += ",\"p50\":" + FormatDouble(h.Quantile(0.5));
  *out += ",\"p99\":" + FormatDouble(h.Quantile(0.99));
  *out += ",\"min\":" + FormatDouble(h.min);
  *out += ",\"max\":" + FormatDouble(h.max);
  *out += '}';
}

void AppendCountersJson(std::string* out, const ExecCounters& c) {
  *out += '{';
  bool first = true;
  c.ForEach([&](const char* name, uint64_t value) {
    if (!first) *out += ',';
    first = false;
    *out += '"';
    *out += name;
    *out += "\":";
    *out += std::to_string(value);
  });
  *out += '}';
}

void AppendExecutionJson(std::string* out, const QueryExecution& e) {
  *out += "{\"fingerprint\":\"" + FingerprintHex(e.fingerprint);
  *out += "\",\"query\":\"" + JsonEscape(e.query);
  *out += "\",\"algorithm\":\"" + JsonEscape(e.algorithm);
  *out += "\",\"scheme\":\"" + JsonEscape(e.scheme);
  *out += "\",\"k\":" + std::to_string(e.k);
  *out += ",\"latency_ms\":" + FormatDouble(e.latency_ms);
  *out += ",\"relaxations\":" + std::to_string(e.relaxations);
  *out += ",\"predicates_dropped\":" + std::to_string(e.predicates_dropped);
  *out += ",\"penalty\":" + FormatDouble(e.penalty);
  *out += ",\"answers\":" + std::to_string(e.answers);
  *out += ",\"error\":";
  *out += e.error ? "true" : "false";
  *out += ",\"budget_exhausted\":";
  *out += e.budget_exhausted ? "true" : "false";
  *out += ",\"cpu_ms\":" + FormatDouble(e.cpu_ms);
  *out += ",\"counters\":";
  AppendCountersJson(out, e.counters);
  *out += '}';
}

/// Mirrors eviction deltas into the global registry as they happen.
/// Many stores may coexist, so the metrics aggregate across all of them; Counter::Inc is thread-safe.
void ExportEvictionDeltas(uint64_t shapes, uint64_t ring, uint64_t slowlog) {
  static MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* m_shapes = reg.counter("query_stats.shape_evictions");
  static Counter* m_ring = reg.counter("query_stats.ring_evictions");
  static Counter* m_slowlog = reg.counter("query_stats.slowlog_evictions");
  if (shapes > 0) m_shapes->Inc(shapes);
  if (ring > 0) m_ring->Inc(ring);
  if (slowlog > 0) m_slowlog->Inc(slowlog);
}

}  // namespace

std::string QueryShapeKey(const Tpq& q, const TagDict& dict) {
  if (q.empty()) return "()";
  return ShapeSubtree(q, q.root(), dict, true);
}

uint64_t FingerprintTpq(const Tpq& q, const TagDict& dict) {
  return Fnv1a64(QueryShapeKey(q, dict));
}

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

QueryStatsStore::QueryStatsStore(QueryStatsOptions opts) : opts_(opts) {}

void QueryStatsStore::Record(const QueryExecution& e) {
  MutexLock lock(mu_);
  ++seq_;
  ShapeStats& s = shapes_[e.fingerprint];
  if (s.executions == 0) s.example_query = e.query;
  ++s.executions;
  if (e.error) ++s.errors;
  s.latency_ms.Observe(e.latency_ms);
  s.total_relaxations += e.relaxations;
  s.total_predicates_dropped += e.predicates_dropped;
  s.total_penalty += e.penalty;
  s.total_answers += e.answers;
  s.total_cpu_ms += e.cpu_ms;
  s.total_tuples_created += e.counters.tuples_created;
  if (e.budget_exhausted) ++s.budget_exhausted;
  s.last_touched = seq_;
  EvictShapesLocked();

  ring_.push_back(e);
  uint64_t dropped = 0;
  while (ring_.size() > opts_.ring_capacity) {
    ring_.pop_front();
    ++dropped;
  }
  evictions_.ring += dropped;
  ExportEvictionDeltas(0, dropped, 0);
}

void QueryStatsStore::RecordSlow(const QueryExecution& e, double threshold_ms,
                                 std::shared_ptr<const QueryTrace> trace) {
  MutexLock lock(mu_);
  slowlog_.push_back(SlowQueryEntry{e, threshold_ms, std::move(trace)});
  uint64_t dropped = 0;
  while (slowlog_.size() > opts_.slowlog_capacity) {
    slowlog_.pop_front();
    ++dropped;
  }
  evictions_.slowlog += dropped;
  ExportEvictionDeltas(0, 0, dropped);
}

void QueryStatsStore::SetOptions(const QueryStatsOptions& opts) {
  MutexLock lock(mu_);
  opts_ = opts;
  EvictShapesLocked();
  TrimRingsLocked();
}

QueryStatsOptions QueryStatsStore::options() const {
  MutexLock lock(mu_);
  return opts_;
}

QueryStatsEvictions QueryStatsStore::Evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

void QueryStatsStore::EvictShapesLocked() {
  uint64_t dropped = 0;
  while (shapes_.size() > opts_.max_shapes) {
    auto victim = shapes_.begin();
    for (auto it = shapes_.begin(); it != shapes_.end(); ++it) {
      if (it->second.last_touched < victim->second.last_touched) victim = it;
    }
    shapes_.erase(victim);
    ++dropped;
  }
  evictions_.shapes += dropped;
  ExportEvictionDeltas(dropped, 0, 0);
}

void QueryStatsStore::TrimRingsLocked() {
  uint64_t ring_dropped = 0;
  while (ring_.size() > opts_.ring_capacity) {
    ring_.pop_front();
    ++ring_dropped;
  }
  uint64_t slow_dropped = 0;
  while (slowlog_.size() > opts_.slowlog_capacity) {
    slowlog_.pop_front();
    ++slow_dropped;
  }
  evictions_.ring += ring_dropped;
  evictions_.slowlog += slow_dropped;
  ExportEvictionDeltas(0, ring_dropped, slow_dropped);
}

std::vector<ShapeStatsSnapshot> QueryStatsStore::Shapes() const {
  MutexLock lock(mu_);
  std::vector<ShapeStatsSnapshot> out;
  out.reserve(shapes_.size());
  for (const auto& [fingerprint, s] : shapes_) {
    ShapeStatsSnapshot snap;
    snap.fingerprint = fingerprint;
    snap.example_query = s.example_query;
    snap.executions = s.executions;
    snap.errors = s.errors;
    snap.latency_ms = s.latency_ms.Snapshot();
    snap.total_relaxations = s.total_relaxations;
    snap.total_predicates_dropped = s.total_predicates_dropped;
    snap.total_penalty = s.total_penalty;
    snap.total_answers = s.total_answers;
    snap.total_cpu_ms = s.total_cpu_ms;
    snap.total_tuples_created = s.total_tuples_created;
    snap.budget_exhausted = s.budget_exhausted;
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const ShapeStatsSnapshot& a, const ShapeStatsSnapshot& b) {
              if (a.executions != b.executions) {
                return a.executions > b.executions;
              }
              return a.fingerprint < b.fingerprint;
            });
  return out;
}

std::vector<QueryExecution> QueryStatsStore::Recent() const {
  MutexLock lock(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<QueryExecution> QueryStatsStore::Recent(size_t limit) const {
  MutexLock lock(mu_);
  const size_t n = std::min(limit, ring_.size());
  return {ring_.end() - static_cast<std::ptrdiff_t>(n), ring_.end()};
}

std::vector<SlowQueryEntry> QueryStatsStore::SlowLog() const {
  MutexLock lock(mu_);
  return {slowlog_.begin(), slowlog_.end()};
}

size_t QueryStatsStore::shape_count() const {
  MutexLock lock(mu_);
  return shapes_.size();
}

void QueryStatsStore::Reset() {
  MutexLock lock(mu_);
  shapes_.clear();
  ring_.clear();
  slowlog_.clear();
  seq_ = 0;
  evictions_ = {};
}

std::string QueryStatsStore::ToJson() const {
  return ToJson(std::numeric_limits<size_t>::max());
}

std::string QueryStatsStore::ToJson(size_t recent_limit) const {
  const std::vector<ShapeStatsSnapshot> shapes = Shapes();
  std::vector<QueryExecution> recent = Recent(recent_limit);
  std::vector<SlowQueryEntry> slow = SlowLog();
  if (slow.size() > recent_limit) {
    slow.erase(slow.begin(),
               slow.end() - static_cast<std::ptrdiff_t>(recent_limit));
  }

  std::string out = "{\"shapes\":[";
  bool first = true;
  for (const ShapeStatsSnapshot& s : shapes) {
    if (!first) out += ',';
    first = false;
    out += "{\"fingerprint\":\"" + FingerprintHex(s.fingerprint);
    out += "\",\"query\":\"" + JsonEscape(s.example_query);
    out += "\",\"executions\":" + std::to_string(s.executions);
    out += ",\"errors\":" + std::to_string(s.errors);
    out += ",\"latency_ms\":";
    AppendHistogramJson(&out, s.latency_ms);
    out += ",\"relaxations_mean\":" + FormatDouble(s.MeanRelaxations());
    out += ",\"predicates_dropped_mean\":" +
           FormatDouble(s.MeanPredicatesDropped());
    out += ",\"penalty_mean\":" + FormatDouble(s.MeanPenalty());
    out += ",\"answers_mean\":" + FormatDouble(s.MeanAnswers());
    out += ",\"cpu_ms_mean\":" + FormatDouble(s.MeanCpuMs());
    out += ",\"tuples_created_mean\":" + FormatDouble(s.MeanTuplesCreated());
    out += ",\"budget_exhausted\":" + std::to_string(s.budget_exhausted);
    out += '}';
  }
  const QueryStatsEvictions ev = Evictions();
  out += "],\"evictions\":{\"shapes\":" + std::to_string(ev.shapes);
  out += ",\"ring\":" + std::to_string(ev.ring);
  out += ",\"slowlog\":" + std::to_string(ev.slowlog);
  out += "},\"recent\":[";
  first = true;
  for (const QueryExecution& e : recent) {
    if (!first) out += ',';
    first = false;
    AppendExecutionJson(&out, e);
  }
  out += "],\"slow_log\":[";
  first = true;
  for (const SlowQueryEntry& entry : slow) {
    if (!first) out += ',';
    first = false;
    out += "{\"threshold_ms\":" + FormatDouble(entry.threshold_ms);
    out += ",\"execution\":";
    AppendExecutionJson(&out, entry.execution);
    if (entry.trace != nullptr) {
      out += ",\"trace\":" + TraceToJson(*entry.trace);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace flexpath
