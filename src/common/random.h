#ifndef FLEXPATH_COMMON_RANDOM_H_
#define FLEXPATH_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flexpath {

/// Deterministic 64-bit pseudo-random generator (xoshiro256** seeded via
/// SplitMix64). Used by the XMark generator and by property tests so runs
/// are reproducible across platforms; never use std::rand in the library.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform integer in [0, bound). bound must be > 0.
  uint64_t Uniform(uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Zipf-distributed rank in [0, n) with exponent s (s=1 is classic Zipf).
  /// Lower ranks are more likely; used to draw skewed term frequencies.
  uint64_t Zipf(uint64_t n, double s);

 private:
  uint64_t state_[4];
};

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_RANDOM_H_
