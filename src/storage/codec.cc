#include "storage/codec.h"

#include <algorithm>

namespace flexpath {
namespace storage {

void PutVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

Status EncodeKeyBlocks(const std::vector<uint64_t>& keys, std::string* out) {
  for (size_t i = 0; i < keys.size(); i += kBlockKeys) {
    const size_t block_end = std::min(keys.size(), i + kBlockKeys);
    if (i > 0 && keys[i] <= keys[i - 1]) {
      return Status::InvalidArgument(
          "key sequence is not strictly increasing at position " +
          std::to_string(i));
    }
    PutVarint(keys[i], out);
    for (size_t j = i + 1; j < block_end; ++j) {
      if (keys[j] <= keys[j - 1]) {
        return Status::InvalidArgument(
            "key sequence is not strictly increasing at position " +
            std::to_string(j));
      }
      PutVarint(keys[j] - keys[j - 1], out);
    }
  }
  return Status::OK();
}

Status DecodeKeyBlocks(std::string_view data, uint64_t expect,
                       std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(expect);
  size_t pos = 0;
  while (out->size() < expect) {
    const size_t block =
        std::min<size_t>(kBlockKeys, expect - out->size());
    uint64_t key = 0;
    FLEXPATH_RETURN_IF_ERROR(GetVarint(data, &pos, &key));
    if (!out->empty() && key <= out->back()) {
      return Status::InvalidArgument("block first key does not increase");
    }
    out->push_back(key);
    for (size_t j = 1; j < block; ++j) {
      uint64_t delta = 0;
      FLEXPATH_RETURN_IF_ERROR(GetVarint(data, &pos, &delta));
      if (delta == 0) {
        return Status::InvalidArgument("zero delta in key block");
      }
      if (key > UINT64_MAX - delta) {
        return Status::InvalidArgument("key overflow in key block");
      }
      key += delta;
      out->push_back(key);
    }
  }
  if (pos != data.size()) {
    return Status::InvalidArgument("trailing bytes after key blocks");
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace flexpath
