#ifndef FLEXBENCH_MODES_H_
#define FLEXBENCH_MODES_H_

#include <cstdint>
#include <vector>

#include "calibration.h"
#include "engine.h"

namespace flexbench {

/// One set-up with the calibration probe timed just before and after it.
struct SetupSample {
  SetupTimes times;
  double kernel_before_ms = 0.0;
  double kernel_after_ms = 0.0;
};

/// Everything a mode needs once set-up and warm-up are done.
struct RunContext {
  Engine* engine = nullptr;
  CalibrationKernel* kernel = nullptr;
  std::vector<SetupSample> setups;
  uint64_t seed = 0;
  double seconds = 0.0;
};

/// The untraced end-to-end run: a closed loop of timed ops for `seconds`,
/// the probe around every pass, then an untimed verification pass. Prints
/// the raw samples as one JSON line; returns the exit code.
int RunTimed(const RunContext& ctx);

/// The traced run: a fixed prefix of the op stream, each op followed by an
/// outside-in replay of every layer's public entry point. Prints the
/// per-layer metrics as one JSON line; returns the exit code.
int RunTraced(const RunContext& ctx);

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

}  // namespace flexbench

#endif  // FLEXBENCH_MODES_H_
