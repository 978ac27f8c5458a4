#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory_resource>

namespace flexbench {

namespace {

constexpr size_t kArenaBytes = size_t{4} << 20;
constexpr int kRounds = 2;
constexpr int kMapOps = 4096;
constexpr int kSmallVectors = 4096;

uint64_t NextLcg(uint64_t x) {
  return x * 6364136223846793005ULL + 1442695040888963407ULL;
}

}  // namespace

CalibrationKernel::CalibrationKernel() : arena_(kArenaBytes) {}

uint64_t CalibrationKernel::RunOnce() {
  uint64_t sum = 0;
  for (int round = 0; round < kRounds; ++round) {
    // null_memory_resource upstream: overflowing the arena throws instead
    // of silently falling back to the global allocator.
    std::pmr::monotonic_buffer_resource res(arena_.data(), arena_.size(),
                                            std::pmr::null_memory_resource());
    std::pmr::map<uint64_t, uint64_t> m(&res);
    uint64_t x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kMapOps; ++i) {
      x = NextLcg(x);
      m.emplace(x >> 40, static_cast<uint64_t>(i));
    }
    x = 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kMapOps; ++i) {
      x = NextLcg(x);
      auto it = m.lower_bound((x >> 40) ^ 1);
      if (it != m.end()) sum += it->second;
    }

    std::pmr::vector<std::pmr::vector<uint32_t>> vecs(&res);
    vecs.reserve(kSmallVectors);
    for (int i = 0; i < kSmallVectors; ++i) {
      x = NextLcg(x);
      std::pmr::vector<uint32_t>& v = vecs.emplace_back();
      const int n = 1 + static_cast<int>((x >> 60) & 7);
      for (int j = 0; j < n; ++j) v.push_back(static_cast<uint32_t>(x >> j));
      sum += v.back();
    }
  }
  return sum;
}

double CalibrationKernel::MeasureMs() {
  double runs[3];
  for (double& ms : runs) {
    const auto start = std::chrono::steady_clock::now();
    sink_ += RunOnce();
    ms = std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
             .count();
  }
  std::sort(runs, runs + 3);
  return runs[1];
}

}  // namespace flexbench
