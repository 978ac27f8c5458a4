#include "storage/codec.h"

#include <limits>

namespace flexpath {
namespace storage {

void PutVarint(uint64_t value, std::string* out) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

template <typename T>
Status PutDeltaChain(const std::vector<T>& values, std::string* out) {
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0 && values[i] <= values[i - 1]) {
      return Status::InvalidArgument(
          "delta chain does not strictly increase at position " +
          std::to_string(i));
    }
    PutVarint(values[i] - (i == 0 ? 0 : values[i - 1]), out);
  }
  return Status::OK();
}

template <typename T>
Status GetDeltaChain(std::string_view data, size_t* pos, uint64_t count,
                     std::vector<T>* out) {
  if (*pos > data.size() || count > data.size() - *pos) {
    return Status::InvalidArgument("delta chain count exceeds its bytes");
  }
  out->reserve(out->size() + static_cast<size_t>(count));
  constexpr uint64_t kMax = std::numeric_limits<T>::max();
  uint64_t value = 0;  // The first value is its own delta from 0.
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t delta = 0;
    FLEXPATH_RETURN_IF_ERROR(GetVarint(data, pos, &delta));
    if (i > 0 && delta == 0) {
      return Status::InvalidArgument("zero delta in delta chain");
    }
    if (delta > kMax - value) {
      return Status::InvalidArgument("delta chain overflows its value type");
    }
    value += delta;
    out->push_back(static_cast<T>(value));
  }
  return Status::OK();
}

template Status PutDeltaChain(const std::vector<uint32_t>&, std::string*);
template Status PutDeltaChain(const std::vector<uint64_t>&, std::string*);
template Status GetDeltaChain(std::string_view, size_t*, uint64_t,
                              std::vector<uint32_t>*);
template Status GetDeltaChain(std::string_view, size_t*, uint64_t,
                              std::vector<uint64_t>*);

}  // namespace storage
}  // namespace flexpath
