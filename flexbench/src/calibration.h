#ifndef FLEXBENCH_CALIBRATION_H_
#define FLEXBENCH_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flexbench {

/// A fixed probe of how fast the host runs engine-like work right now.
///
/// The probe mirrors the engine's memory behaviour rather than raw ALU
/// speed: node-based map inserts and lookups plus thousands of small
/// vector allocations, the shape of the engine's tuple, posting-list and
/// schedule churn. (Pointer chases over 1 MB and 16 MB rings tracked the
/// engine's drift worse; see flexbench/README.md.) Everything it allocates
/// comes from an arena reserved in the constructor, so a measurement never
/// touches the global allocator and calls no engine code: changing the
/// engine cannot move the probe.
///
/// The benchmark times the probe around every pass of queries and scales
/// each pass's times by kReferenceMs / measured, which cancels most of the
/// host's drift (frequency, cache and memory-bandwidth contention).
class CalibrationKernel {
 public:
  /// What one probe took on a quiet 4-vCPU Xeon VM; calibrated times are
  /// expressed as if every pass ran at that speed.
  static constexpr double kReferenceMs = 1.7;

  CalibrationKernel();

  /// Runs the probe three times and returns the median duration in ms.
  double MeasureMs();

  /// Sum of every probe's result, reported so the work is observable.
  uint64_t checksum() const { return sink_; }

 private:
  /// One probe run; returns a checksum so the work cannot be elided.
  uint64_t RunOnce();

  std::vector<std::byte> arena_;
  uint64_t sink_ = 0;
};

}  // namespace flexbench

#endif  // FLEXBENCH_CALIBRATION_H_
