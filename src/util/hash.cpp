#include "util/hash.hpp"

#include <array>
#include <bit>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define CBDE_CRC32_CLMUL 1
#endif

namespace cbde::util {
namespace {

// Slice-by-8 CRC-32: eight derived tables let the hot loop consume 8 input
// bytes per iteration with independent lookups instead of one byte per
// table access (Kounavis & Berry, Intel 2008). table[0] is the classic
// byte-at-a-time table and serves the unaligned head/tail.
struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
};

constexpr CrcTables make_crc_tables() {
  CrcTables tables;
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables.t[0][i];
    for (std::size_t slice = 1; slice < 8; ++slice) {
      c = tables.t[0][c & 0xFFu] ^ (c >> 8);
      tables.t[slice][i] = c;
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// Advance the working (pre-inverted) CRC state `c` over `n` bytes.
std::uint32_t slice8_update(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  const auto& t = kCrcTables.t;
  // The sliced formulation folds word loads in little-endian byte order.
  while (std::endian::native == std::endian::little && n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    c ^= lo;
    c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
        t[4][c >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef CBDE_CRC32_CLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). Multiplying
// a 128-bit lane's two halves by fixed powers of x mod P moves it D bits
// further down the message without changing the remainder, so whole lanes
// fold forward with two carry-less multiplies and no table. The constants
// are those of the bit-reflected CRC-32 polynomial, as in Linux's
// crc32-pclmul_asm.S: k1/k2 = x^(512±32) mod P fold 512 bits ahead, k3/k4 =
// x^(128±32) mod P fold 128 bits ahead, k5 = x^64 mod P takes 64 bits to 32,
// and mu = x^64 div P with P' drives the closing Barrett reduction.
constexpr long long kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
constexpr long long kPoly = 0x01db710641, kMu = 0x01f7011641;

/// The kernel starts from four 16-byte lanes; shorter inputs take slice-by-8.
constexpr std::size_t kClmulMinBytes = 64;

__attribute__((target("pclmul"))) inline __m128i fold(__m128i lane, __m128i k, __m128i next) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(lane, k, 0x00), _mm_clmulepi64_si128(lane, k, 0x11)),
      next);
}

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advance the working CRC state over `n` bytes; `n` is a multiple of 16
/// and at least kClmulMinBytes.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t clmul_update(std::uint32_t c,
                                                                     const std::uint8_t* p,
                                                                     std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  const __m128i barrett = _mm_set_epi64x(kMu, kPoly);
  const __m128i low32 = _mm_set_epi32(0, 0, 0, -1);

  // Four lanes fold 64 bytes per step; the state enters as message bits.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  // 512 -> 128 bits, then any whole 16-byte blocks left.
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));
  // 128 -> 64 bits (appending the 32 zero bits a CRC implies), 64 -> 32.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), _mm_clmulepi64_si128(x0, k3k4, 0x10));
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 4),
                     _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00));
  // Barrett: q = floor(x0 * mu / x^64), remainder = x0 - q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

/// Chosen once per process from CPUID.
bool clmul_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#endif  // CBDE_CRC32_CLMUL

}  // namespace

namespace detail {

/// The table-driven path on its own, whatever the host supports.
std::uint32_t crc32_slice8(BytesView data, std::uint32_t seed) {
  return slice8_update(seed ^ 0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

}  // namespace detail

std::uint32_t crc32(BytesView data, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef CBDE_CRC32_CLMUL
  if (n >= kClmulMinBytes && clmul_supported()) {
    const std::size_t folded = n & ~std::size_t{15};
    c = clmul_update(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return slice8_update(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace cbde::util
