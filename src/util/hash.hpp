// Non-cryptographic hashes: FNV-1a (string keys, delta chunk keys) and
// CRC-32 (delta/compressed payload integrity checks).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace cbde::util {

inline constexpr std::uint64_t kFnvOffset64 = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime64 = 0x100000001b3ull;

/// 64-bit FNV-1a over an arbitrary byte range.
constexpr std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n,
                                std::uint64_t seed = kFnvOffset64) {
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime64;
  }
  return h;
}

inline std::uint64_t fnv1a64(BytesView b, std::uint64_t seed = kFnvOffset64) {
  return fnv1a64(b.data(), b.size(), seed);
}

inline std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed = kFnvOffset64) {
  return fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()), s.size(), seed);
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Matches zlib's crc32 for the
/// same input and chains like it: crc32(b, crc32(a)) == crc32(a + b), so
/// payload checksums are externally verifiable. Inputs of 64 bytes and up
/// fold 64 bytes per step with carry-less multiplies on x86 hosts whose
/// CPUID reports PCLMULQDQ and SSE4.1 (checked once per process); shorter
/// inputs, the last 0-15 bytes and other hosts run slice-by-8.
std::uint32_t crc32(BytesView data, std::uint32_t seed = 0);

}  // namespace cbde::util
