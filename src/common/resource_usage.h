#ifndef FLEXPATH_COMMON_RESOURCE_USAGE_H_
#define FLEXPATH_COMMON_RESOURCE_USAGE_H_

#include <cstdint>

namespace flexpath {

/// Milliseconds of CPU time consumed by the *calling thread* so far
/// (clock_gettime(CLOCK_THREAD_CPUTIME_ID)). Unlike wall-clock time this
/// excludes time spent blocked or descheduled, so sums across threads
/// measure work, not waiting. Returns 0.0 where the clock is unavailable.
double ThreadCpuNowMs();

/// Measures the calling thread's CPU time across a scope. The timer must
/// be read on the same thread that constructed it.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_ms_(ThreadCpuNowMs()) {}

  /// CPU-milliseconds this thread has burned since construction.
  double ElapsedMs() const { return ThreadCpuNowMs() - start_ms_; }

 private:
  double start_ms_;
};

/// What one query (or one stage of it) actually consumed — the accounting
/// layer under the wall-clock spans and work counters (DESIGN.md §13).
/// CPU is attributed where it runs: each pool worker's task time is
/// measured at the task boundary and folded in, so cpu_ms can exceed the
/// query's wall-clock latency on a multi-core run. The byte figure is an
/// estimate (scan entries examined, tuple bindings materialized), not an
/// allocator-exact count; it exists so relative
/// comparisons between queries, rounds and plans are meaningful.
struct ResourceUsage {
  double cpu_ms = 0.0;          ///< Thread-CPU ms, all participating threads.
  uint64_t tuples_scanned = 0;  ///< Scan/probe entries examined.
  uint64_t tuples_produced = 0; ///< Tuples / join pairs materialized.
  uint64_t bytes_touched = 0;   ///< Approximate bytes read+written.
  uint64_t rounds_executed = 0; ///< Relaxation rounds / encoded passes run.
  uint64_t rounds_pruned = 0;   ///< Rounds skipped by static analysis.

  /// Accumulates `other` into this (plain sums; every field is additive).
  void Add(const ResourceUsage& other);

  /// Calls fn(name, value-as-double) for every field, in declaration
  /// order — the single source of truth for exporting usage (span
  /// annotations, JSON, metrics).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    fn("cpu_ms", cpu_ms);
    fn("tuples_scanned", static_cast<double>(tuples_scanned));
    fn("tuples_produced", static_cast<double>(tuples_produced));
    fn("bytes_touched", static_cast<double>(bytes_touched));
    fn("rounds_executed", static_cast<double>(rounds_executed));
    fn("rounds_pruned", static_cast<double>(rounds_pruned));
  }
};

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_RESOURCE_USAGE_H_
