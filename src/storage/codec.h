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
/// (DESIGN.md §17): LEB128 varints and delta-compressed blocks of
/// strictly increasing uint64 keys.

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

/// Number of keys per delta block: each block restarts the delta chain
/// with an absolute key. Lists are decoded whole, block after block, so
/// the count is what the storage.cold_block_decodes counter counts in.
inline constexpr size_t kBlockKeys = 128;

/// Encodes a strictly increasing key sequence as delta blocks of up to
/// kBlockKeys keys: each block is [varint first_key][varint delta]*,
/// deltas >= 1. Appends the encoded bytes to `out`. Returns
/// InvalidArgument if the keys are not strictly increasing.
Status EncodeKeyBlocks(const std::vector<uint64_t>& keys, std::string* out);

/// Decodes the blocks of EncodeKeyBlocks back into keys. `expect` is the
/// expected key count (from the directory); a mismatch, a non-positive
/// delta, or a truncated block is an error, never a crash.
Status DecodeKeyBlocks(std::string_view data, uint64_t expect,
                       std::vector<uint64_t>* out);

}  // namespace storage
}  // namespace flexpath

#endif  // FLEXPATH_STORAGE_CODEC_H_
