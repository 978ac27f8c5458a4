#ifndef FLEXPATH_COMMON_CPU_TIMER_H_
#define FLEXPATH_COMMON_CPU_TIMER_H_

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

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_CPU_TIMER_H_
