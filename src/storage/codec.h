#ifndef FLEXPATH_STORAGE_CODEC_H_
#define FLEXPATH_STORAGE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace flexpath {
namespace storage {

/// Low-level byte codec shared by the packed-corpus writer and reader
/// (DESIGN.md §17): LEB128 varints, and delta chains of strictly
/// increasing integers — the one coding of element keys, posting keys
/// and token positions.

/// Appends `value` as a LEB128 varint (1-10 bytes).
void PutVarint(uint64_t value, std::string* out);

/// Bounds-checked varint reader over a byte range. `*pos` advances past
/// the consumed bytes on success and is unspecified on error. Inline:
/// document decodes call it several times per node.
inline Status GetVarint(std::string_view data, size_t* pos, uint64_t* out) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (*pos >= data.size()) {
      return Status::InvalidArgument("truncated varint");
    }
    const uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    if (shift >= 63 && byte > 1) {
      return Status::InvalidArgument("varint overflow");
    }
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  *out = value;
  return Status::OK();
}

/// Appends `values` as one delta chain: the first value absolute, every
/// later one as its difference (>= 1) from the value before, each a
/// varint. InvalidArgument if the values do not strictly increase.
/// Instantiated for uint32_t (positions) and uint64_t (keys).
template <typename T>
Status PutDeltaChain(const std::vector<T>& values, std::string* out);

/// Reads the `count`-value delta chain at `*pos` of `data`, appends the
/// values to `out`, and advances `*pos` past it. A zero delta, a value
/// past T's range, a count larger than the bytes left (every value takes
/// at least one) or a truncated varint is an error, never a crash. The
/// caller checks for trailing bytes once its list ends.
template <typename T>
Status GetDeltaChain(std::string_view data, size_t* pos, uint64_t count,
                     std::vector<T>* out);

}  // namespace storage
}  // namespace flexpath

#endif  // FLEXPATH_STORAGE_CODEC_H_
