// LEB128-style unsigned varint codec, used by the delta instruction format
// and the compressed block format.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.hpp"
#include "util/contracts.hpp"

namespace cbde::util {

/// Append `value` to `out` as a base-128 varint (7 bits per byte, MSB =
/// continuation). Values up to 64 bits encode in at most 10 bytes.
inline void put_uvarint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Decode a varint from `in` starting at `pos`; advances `pos` past the
/// encoding. Returns nullopt on truncated or overlong input.
inline std::optional<std::uint64_t> get_uvarint(BytesView in, std::size_t& pos) {
  std::uint64_t value = 0;
  int shift = 0;
  while (pos < in.size()) {
    const std::uint8_t byte = in[pos++];
    if (shift == 63 && (byte & 0x7E) != 0) return std::nullopt;  // overflow
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
    shift += 7;
    if (shift > 63) return std::nullopt;
  }
  return std::nullopt;  // truncated
}

/// Size in bytes of the varint encoding of `value`.
inline std::size_t uvarint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

}  // namespace cbde::util
