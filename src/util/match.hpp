// Common-prefix length of two byte ranges, shared by the delta matcher, the
// light estimator and the CBZ1 LZ77 match finder.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace cbde::util {

/// Length of the common prefix of `a` and `b`, at most `limit`: 8 bytes per
/// step with a count-trailing-zeros tail instead of a byte-wise loop.
inline std::size_t forward_match(const std::uint8_t* a, const std::uint8_t* b,
                                 std::size_t limit) {
  std::size_t n = 0;
  while (n + 8 <= limit) {
    std::uint64_t x;
    std::uint64_t y;
    std::memcpy(&x, a + n, 8);
    std::memcpy(&y, b + n, 8);
    if (const std::uint64_t diff = x ^ y; diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return n + (static_cast<std::size_t>(std::countr_zero(diff)) >> 3);
      } else {
        return n + (static_cast<std::size_t>(std::countl_zero(diff)) >> 3);
      }
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

}  // namespace cbde::util
