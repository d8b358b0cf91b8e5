#include <gtest/gtest.h>
#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "util/bytes.hpp"
#include "util/clock.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/varint.hpp"
#include "util/zipf.hpp"

namespace cbde::util::detail {
// Internal to util/hash.cpp: the slice-by-8 path that crc32() uses below 64
// bytes and on hosts without PCLMULQDQ, callable here on any input length.
std::uint32_t crc32_slice8(BytesView data, std::uint32_t seed);
}  // namespace cbde::util::detail

namespace cbde::util {
namespace {

// ---------------------------------------------------------------- varint

TEST(Varint, RoundTripSmallValues) {
  for (std::uint64_t v = 0; v < 300; ++v) {
    Bytes buf;
    put_uvarint(buf, v);
    std::size_t pos = 0;
    const auto decoded = get_uvarint(as_view(buf), pos);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(uvarint_size(v), buf.size());
  }
}

class VarintBoundary : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintBoundary, RoundTrip) {
  const std::uint64_t v = GetParam();
  Bytes buf;
  put_uvarint(buf, v);
  std::size_t pos = 0;
  const auto decoded = get_uvarint(as_view(buf), pos);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, v);
}

INSTANTIATE_TEST_SUITE_P(PowerBoundaries, VarintBoundary,
                         ::testing::Values(0ull, 127ull, 128ull, 16383ull, 16384ull,
                                           (1ull << 32) - 1, 1ull << 32,
                                           (1ull << 63), ~0ull));

TEST(Varint, TruncatedInputFails) {
  Bytes buf;
  put_uvarint(buf, 1ull << 40);
  buf.pop_back();
  std::size_t pos = 0;
  EXPECT_FALSE(get_uvarint(as_view(buf), pos).has_value());
}

TEST(Varint, EmptyInputFails) {
  Bytes buf;
  std::size_t pos = 0;
  EXPECT_FALSE(get_uvarint(as_view(buf), pos).has_value());
}

TEST(Varint, OverlongEncodingRejected) {
  // 11 continuation bytes exceed 64 bits.
  Bytes buf(11, 0x80);
  buf.push_back(0x01);
  std::size_t pos = 0;
  EXPECT_FALSE(get_uvarint(as_view(buf), pos).has_value());
}

TEST(Varint, SequentialDecoding) {
  Bytes buf;
  put_uvarint(buf, 5);
  put_uvarint(buf, 1000);
  put_uvarint(buf, 0);
  std::size_t pos = 0;
  EXPECT_EQ(get_uvarint(as_view(buf), pos), 5u);
  EXPECT_EQ(get_uvarint(as_view(buf), pos), 1000u);
  EXPECT_EQ(get_uvarint(as_view(buf), pos), 0u);
  EXPECT_EQ(pos, buf.size());
}

// ---------------------------------------------------------------- hashing

TEST(Crc32, MatchesIeeeReferenceVector) {
  // Standard check value for CRC-32/IEEE.
  const Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(as_view(data)), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32(BytesView{}), 0u); }

TEST(Crc32, MatchesZlibOnRandomBuffers) {
  // External validation: crc32() (the folding kernel from 64 bytes on when
  // the host has it) and the slice-by-8 path must both agree with zlib
  // bit-for-bit at every length across the 64-byte threshold and every
  // 16-byte remainder, at every alignment, from nonzero seeds, and must
  // chain like zlib: crc32(b, crc32(a)) == crc32(a + b).
  Rng rng(2025);
  Bytes data(70'016);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
  std::vector<std::size_t> lengths(1101);
  for (std::size_t len = 0; len < lengths.size(); ++len) lengths[len] = len;
  lengths.insert(lengths.end(), {4'096, 40'973, 70'000});
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (const std::size_t len : lengths) {
      const BytesView in(data.data() + offset, len);
      const auto seed = static_cast<std::uint32_t>(rng.next_below(0xFFFFFFFFu) + 1);
      const auto want =
          static_cast<std::uint32_t>(::crc32(seed, in.data(), static_cast<uInt>(len)));
      ASSERT_EQ(crc32(in, seed), want) << "offset " << offset << " len " << len;
      ASSERT_EQ(detail::crc32_slice8(in, seed), want) << "offset " << offset << " len " << len;
      const std::size_t cut = rng.next_below(len + 1);
      ASSERT_EQ(crc32(in.subspan(cut), crc32(in.first(cut), seed)), want)
          << "offset " << offset << " len " << len << " cut " << cut;
    }
  }
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  Bytes data = to_bytes("hello world, this is a checksum test");
  const std::uint32_t before = crc32(as_view(data));
  data[10] ^= 0x01;
  EXPECT_NE(before, crc32(as_view(data)));
}

TEST(Fnv1a, KnownValueAndSeedSensitivity) {
  EXPECT_EQ(fnv1a64(std::string_view("")), kFnvOffset64);
  EXPECT_NE(fnv1a64(std::string_view("a")), fnv1a64(std::string_view("b")));
  EXPECT_NE(fnv1a64(std::string_view("x"), 1), fnv1a64(std::string_view("x"), 2));
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowZeroBoundThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliFrequencyApproximatesP) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ExponentialMeanApproximatesParameter) {
  Rng rng(17);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(23);
  Rng child = a.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next_u64() == child.next_u64();
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------------- zipf

TEST(Zipf, UniformWhenAlphaZero) {
  ZipfSampler zipf(10, 0.0);
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(zipf.pmf(k), 0.1, 1e-9);
}

TEST(Zipf, PmfDecreasesWithRank) {
  ZipfSampler zipf(100, 0.9);
  for (std::size_t k = 1; k < 100; ++k) EXPECT_LE(zipf.pmf(k), zipf.pmf(k - 1));
}

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler zipf(50, 1.2);
  double sum = 0;
  for (std::size_t k = 0; k < 50; ++k) sum += zipf.pmf(k);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, SampleMatchesPmfOnHead) {
  ZipfSampler zipf(20, 1.0);
  Rng rng(31);
  std::vector<int> counts(20, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, zipf.pmf(k), 0.02);
  }
}

TEST(Zipf, SingleElementAlwaysRankZero) {
  ZipfSampler zipf(1, 0.8);
  Rng rng(37);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(zipf.sample(rng), 0u);
}

// ---------------------------------------------------------------- stats

TEST(OnlineStats, MeanVarianceMinMax) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-9);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, PercentilesAndMedian) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.9), 90.1, 1e-9);
}

TEST(Samples, BadQuantileThrows) {
  Samples s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.percentile(1.1), std::invalid_argument);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(4);
  h.add(0);
  h.add(1);
  h.add(1);
  h.add(3);
  h.add(99);  // overflow
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 5u);
}

// ---------------------------------------------------------------- strings

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, TrimWhitespace) {
  EXPECT_EQ(trim("  hello \t\r\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, CaseInsensitiveEquality) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_FALSE(iequals("a", "ab"));
  EXPECT_TRUE(iequals("", ""));
}

TEST(Strings, FormatBytesUnits) {
  EXPECT_EQ(format_bytes(512), "512.0 B");
  EXPECT_EQ(format_bytes(2048), "2.0 KB");
  EXPECT_EQ(format_bytes(3.5 * 1024 * 1024), "3.5 MB");
}

// ---------------------------------------------------------------- bytes / clock / expect

TEST(Bytes, StringRoundTrip) {
  const Bytes b = to_bytes("abc\0def");
  EXPECT_EQ(to_string(as_view(b)), "abc");  // string_view literal stops at NUL
  const Bytes b2 = to_bytes(std::string_view("xy"));
  EXPECT_EQ(as_string_view(as_view(b2)), "xy");
}

TEST(Bytes, AppendConcatenates) {
  Bytes b = to_bytes("ab");
  append(b, std::string_view("cd"));
  EXPECT_EQ(as_string_view(as_view(b)), "abcd");
}

TEST(SimClock, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.advance(5 * kSecond);
  EXPECT_EQ(clock.now(), 5 * kSecond);
  clock.advance_to(7 * kSecond);
  EXPECT_EQ(clock.now(), 7 * kSecond);
  EXPECT_THROW(clock.advance(-1), std::invalid_argument);
  EXPECT_THROW(clock.advance_to(1), std::invalid_argument);
}

TEST(Expect, MacrosThrowTypedErrors) {
  EXPECT_THROW(CBDE_EXPECT(false), std::invalid_argument);
  EXPECT_THROW(CBDE_ASSERT(false), std::logic_error);
  EXPECT_NO_THROW(CBDE_EXPECT(true));
  EXPECT_NO_THROW(CBDE_ASSERT(true));
}

}  // namespace
}  // namespace cbde::util
