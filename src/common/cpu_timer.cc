#include "common/cpu_timer.h"

#include <ctime>

namespace flexpath {

double ThreadCpuNowMs() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
#else
  return 0.0;
#endif
}

}  // namespace flexpath
