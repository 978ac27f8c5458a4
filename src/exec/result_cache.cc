#include "exec/result_cache.h"

#include "common/hash.h"
#include "common/metrics.h"
#include "obs/flight_recorder.h"

namespace flexpath {

size_t CachedStepResult::ApproxBytes(const TupleRows& rows) {
  return sizeof(CachedStepResult) + rows.Bytes();
}

uint64_t StepCacheKey(uint64_t step_fingerprint, uint64_t corpus_generation,
                      uint8_t mode, uint8_t scheme, uint64_t prune_k) {
  uint64_t h = step_fingerprint;
  h = HashCombine(h, corpus_generation);
  h = HashCombine(h, static_cast<uint64_t>(mode));
  h = HashCombine(h, static_cast<uint64_t>(scheme));
  h = HashCombine(h, prune_k);
  return h;
}

ResultCache& ResultCache::Global() {
  static ResultCache* cache =
      new ResultCache(kDefaultSharedBudgetBytes, /*export_metrics=*/true);
  return *cache;
}

ResultCache::ResultCache(size_t budget_bytes, bool export_metrics)
    : lru_(budget_bytes), export_metrics_(export_metrics) {}

std::shared_ptr<const CachedStepResult> ResultCache::Get(uint64_t key) {
  MutexLock lock(mu_);
  std::shared_ptr<const CachedStepResult> entry = lru_.Get(key);
  if (entry != nullptr) {
    ++hits_;
  } else {
    ++misses_;
  }
  if (export_metrics_) ExportMetrics();
  return entry;
}

void ResultCache::Put(uint64_t key,
                      std::shared_ptr<const CachedStepResult> entry) {
  const size_t bytes = entry->bytes;
  MutexLock lock(mu_);
  const uint64_t evictions_before = lru_.evictions();
  const size_t bytes_before = lru_.bytes();
  bool inserted = false;
  if (lru_.Put(key, std::move(entry), bytes)) {
    ++insertions_;
    inserted = true;
  }
  const uint64_t evicted = lru_.evictions() - evictions_before;
  if (evicted > 0) {
    // Shared-tier evictions are capacity pressure worth seeing in a
    // post-mortem; run-tier churn is per-query noise.
    const size_t freed =
        bytes_before + (inserted ? bytes : 0) - lru_.bytes();
    if (export_metrics_) {
      FlightRecorder::Global().Record(FlightEventType::kCacheEvict, evicted,
                                      freed);
    }
  }
  if (export_metrics_) ExportMetrics();
}

void ResultCache::SetBudget(size_t budget_bytes) {
  MutexLock lock(mu_);
  lru_.SetBudget(budget_bytes);
  if (export_metrics_) ExportMetrics();
}

void ResultCache::Clear() {
  MutexLock lock(mu_);
  lru_.Clear();
  if (export_metrics_) ExportMetrics();
}

ResultCache::Stats ResultCache::GetStats() const {
  MutexLock lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.insertions = insertions_;
  s.evictions = lru_.evictions();
  s.entries = lru_.size();
  s.bytes = lru_.bytes();
  s.budget = lru_.budget();
  return s;
}

void ResultCache::ExportMetrics() {
  // Counters are monotone, so export the deltas by setting absolute
  // values is wrong for Counter — instead mirror as gauges for levels
  // and keep monotone counts via Inc-by-delta bookkeeping. Since this
  // runs under mu_, a static last-exported snapshot is safe.
  static MetricsRegistry& reg = MetricsRegistry::Global();
  static Counter* m_hits = reg.counter("cache.hits");
  static Counter* m_misses = reg.counter("cache.misses");
  static Counter* m_insertions = reg.counter("cache.insertions");
  static Counter* m_evictions = reg.counter("cache.evictions");
  static Gauge* m_bytes = reg.gauge("cache.bytes");
  static Gauge* m_entries = reg.gauge("cache.entries");
  static uint64_t last_hits = 0, last_misses = 0, last_insertions = 0,
                  last_evictions = 0;
  m_hits->Inc(hits_ - last_hits);
  m_misses->Inc(misses_ - last_misses);
  m_insertions->Inc(insertions_ - last_insertions);
  m_evictions->Inc(lru_.evictions() - last_evictions);
  last_hits = hits_;
  last_misses = misses_;
  last_insertions = insertions_;
  last_evictions = lru_.evictions();
  m_bytes->Set(static_cast<int64_t>(lru_.bytes()));
  m_entries->Set(static_cast<int64_t>(lru_.size()));
}

}  // namespace flexpath
