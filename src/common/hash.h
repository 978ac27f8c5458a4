#ifndef FLEXPATH_COMMON_HASH_H_
#define FLEXPATH_COMMON_HASH_H_

#include <bit>
#include <cstdint>
#include <string_view>

namespace flexpath {

/// The finalizer of the splitmix64 generator: a cheap 64-bit bijection
/// with full avalanche, used to mix fingerprint fields. Stable across
/// platforms and builds, so fingerprints are reproducible.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Folds the value `v` into the running hash `h`.
inline uint64_t HashCombine(uint64_t h, uint64_t v) {
  return HashMix64(h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
}

/// Folds a double in by its bit pattern (exact, not approximate: two
/// doubles hash equal iff they are bitwise equal).
inline uint64_t HashCombine(uint64_t h, double v) {
  return HashCombine(h, std::bit_cast<uint64_t>(v));
}

/// The 64-bit FNV-1a hash of a byte string.
inline uint64_t Fnv1a64(std::string_view s) {
  uint64_t f = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    f ^= c;
    f *= 0x100000001b3ULL;
  }
  return f;
}

/// Folds a byte string in via FNV-1a.
inline uint64_t HashCombine(uint64_t h, std::string_view s) {
  return HashCombine(h, Fnv1a64(s));
}

}  // namespace flexpath

#endif  // FLEXPATH_COMMON_HASH_H_
