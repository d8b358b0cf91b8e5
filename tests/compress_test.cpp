#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "compress/bitio.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "delta/delta.hpp"
#include "trace/document.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace cbde::compress {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

// ---------------------------------------------------------------- bit I/O

TEST(BitIo, RoundTripMixedWidths) {
  Bytes buf;
  {
    BitWriter w(buf);
    w.write_bits(0b101, 3);
    w.write_bits(0xABCD, 16);
    w.write_bits(1, 1);
    w.write_bits(0x3F, 6);
    w.align_to_byte();
    w.write_byte(0x42);
  }
  BitReader r(as_view(buf));
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(16), 0xABCDu);
  EXPECT_EQ(r.read_bit(), 1u);
  EXPECT_EQ(r.read_bits(6), 0x3Fu);
  r.align_to_byte();
  EXPECT_EQ(r.read_byte(), 0x42);
}

TEST(BitIo, ReadPastEndThrows) {
  Bytes buf{0xFF};
  BitReader r(as_view(buf));
  r.read_bits(8);
  EXPECT_THROW(r.read_bits(1), std::invalid_argument);
}

TEST(BitIo, ZeroBitsIsNoop) {
  Bytes buf;
  {
    BitWriter w(buf);
    w.write_bits(0, 0);
    w.write_bits(0x7, 3);
    w.align_to_byte();
  }
  BitReader r(as_view(buf));
  EXPECT_EQ(r.read_bits(0), 0u);
  EXPECT_EQ(r.read_bits(3), 7u);
}

TEST(BitIo, PositionTracksConsumedBytes) {
  Bytes buf{0xAA, 0xBB, 0xCC};
  BitReader r(as_view(buf));
  r.read_bits(4);
  EXPECT_EQ(r.position(), 1u);  // first byte pulled into the buffer
  r.read_bits(4);
  r.read_bits(8);
  EXPECT_EQ(r.position(), 2u);
}

// ---------------------------------------------------------------- huffman

TEST(Huffman, SkewedFrequenciesGiveShortCodesToCommonSymbols) {
  std::vector<std::uint64_t> freqs(4, 0);
  freqs[0] = 1000;
  freqs[1] = 10;
  freqs[2] = 10;
  freqs[3] = 1;
  const auto lengths = build_code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[3]);
  for (auto len : lengths) EXPECT_GT(len, 0);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs(10, 0);
  freqs[7] = 5;
  const auto lengths = build_code_lengths(freqs);
  EXPECT_EQ(lengths[7], 1);
  for (std::size_t s = 0; s < 10; ++s) {
    if (s != 7) {
      EXPECT_EQ(lengths[s], 0);
    }
  }
}

TEST(Huffman, AllZeroFrequenciesGiveEmptyCode) {
  const auto lengths = build_code_lengths(std::vector<std::uint64_t>(8, 0));
  for (auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(Huffman, KraftInequalityHolds) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freqs(300);
    for (auto& f : freqs) f = rng.next_below(10000);
    const auto lengths = build_code_lengths(freqs);
    double kraft = 0;
    for (auto len : lengths) {
      ASSERT_LE(len, kMaxCodeLen);
      if (len) kraft += std::pow(2.0, -static_cast<double>(len));
    }
    EXPECT_LE(kraft, 1.0 + 1e-12);
  }
}

TEST(Huffman, EncodeDecodeRoundTrip) {
  std::vector<std::uint64_t> freqs(64, 0);
  util::Rng rng(5);
  for (auto& f : freqs) f = 1 + rng.next_below(500);
  const auto lengths = build_code_lengths(freqs);
  HuffmanEncoder enc(lengths);
  HuffmanDecoder dec(lengths);

  std::vector<std::size_t> symbols;
  for (int i = 0; i < 2000; ++i) symbols.push_back(rng.next_below(64));

  Bytes buf;
  {
    BitWriter w(buf);
    for (auto s : symbols) enc.encode(w, s);
    w.align_to_byte();
  }
  BitReader r(as_view(buf));
  for (auto s : symbols) EXPECT_EQ(dec.decode(r), s);
}

TEST(Huffman, DecoderRejectsExcessiveLengths) {
  std::vector<std::uint8_t> lengths{16};
  EXPECT_THROW(HuffmanDecoder dec(lengths), std::invalid_argument);
}

// ---------------------------------------------------------------- lz77

TEST(Lz77, RoundTripRepetitiveInput) {
  std::string s;
  for (int i = 0; i < 200; ++i) s += "abcabcabc-";
  const Bytes input = to_bytes(s);
  const auto tokens = lz77_tokenize(as_view(input));
  EXPECT_LT(tokens.size(), input.size() / 3);  // matches found
  EXPECT_EQ(lz77_reconstruct(tokens), input);
}

TEST(Lz77, HandlesOverlappingMatches) {
  // "aaaa..." forces distance-1 overlapping copies.
  const Bytes input(500, 'a');
  const auto tokens = lz77_tokenize(as_view(input));
  EXPECT_EQ(lz77_reconstruct(tokens), input);
  EXPECT_LT(tokens.size(), 10u);
}

TEST(Lz77, EmptyAndTinyInputs) {
  EXPECT_TRUE(lz77_tokenize({}).empty());
  const Bytes two = to_bytes("ab");
  const auto tokens = lz77_tokenize(as_view(two));
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].length, 0);
  EXPECT_EQ(lz77_reconstruct(tokens), two);
}

TEST(Lz77, RandomDataMostlyLiterals) {
  util::Rng rng(123);
  Bytes input(4096);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto tokens = lz77_tokenize(as_view(input));
  EXPECT_EQ(lz77_reconstruct(tokens), input);
}

TEST(Lz77, MatchLengthNeverExceedsMax) {
  const Bytes input(5000, 'x');
  for (const auto& t : lz77_tokenize(as_view(input))) {
    EXPECT_LE(t.length, kMaxMatch);
  }
}

// ---------------------------------------------------------------- compressor

class CompressorRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CompressorRoundTrip, TextOfVariousSizes) {
  util::Rng rng(GetParam());
  std::string s;
  static constexpr std::string_view kVocab[] = {"the ", "quick ", "brown ", "fox ",
                                                "<div>", "</div>", "class=", "price"};
  while (s.size() < GetParam()) s += kVocab[rng.next_below(8)];
  const Bytes input = to_bytes(s);
  const Bytes packed = compress(as_view(input));
  EXPECT_EQ(decompress(as_view(packed)), input);
  if (input.size() > 2000) {
    EXPECT_LT(packed.size(), input.size() / 2);  // text compresses well
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressorRoundTrip,
                         ::testing::Values(0, 1, 13, 100, 1000, 10000, 100000, 600000));

TEST(Compressor, EmptyInput) {
  const Bytes packed = compress({});
  EXPECT_TRUE(decompress(as_view(packed)).empty());
}

TEST(Compressor, IncompressibleDataUsesStoredFallback) {
  util::Rng rng(77);
  Bytes input(8192);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(256));
  const Bytes packed = compress(as_view(input));
  EXPECT_EQ(decompress(as_view(packed)), input);
  EXPECT_LT(packed.size(), input.size() + 64);  // bounded framing overhead
}

TEST(Compressor, MultiBlockInputRoundTrips) {
  // Larger than one 256 KB block.
  std::string s;
  while (s.size() < 700 * 1024) s += "the same phrase again and again. ";
  const Bytes input = to_bytes(s);
  EXPECT_EQ(decompress(as_view(compress(as_view(input)))), input);
}

TEST(Compressor, BadMagicRejected) {
  Bytes packed = compress(as_view(to_bytes("hello hello hello")));
  packed[0] = 'X';
  EXPECT_THROW(decompress(as_view(packed)), CorruptInput);
}

TEST(Compressor, TruncationRejected) {
  const Bytes input = to_bytes(std::string(5000, 'z'));
  Bytes packed = compress(as_view(input));
  packed.resize(packed.size() / 2);
  EXPECT_THROW(decompress(as_view(packed)), CorruptInput);
}

TEST(Compressor, PayloadCorruptionDetected) {
  std::string s;
  for (int i = 0; i < 500; ++i) s += "some compressible content ";
  Bytes packed = compress(as_view(to_bytes(s)));
  int rejected = 0;
  // Flip a byte in several positions; every flip must be caught.
  for (std::size_t pos = 16; pos < packed.size(); pos += packed.size() / 7) {
    Bytes damaged = packed;
    damaged[pos] ^= 0x10;
    try {
      const Bytes out = decompress(as_view(damaged));
      // If it decodes, the checksum must have caught any content change.
      EXPECT_EQ(out, to_bytes(s));
    } catch (const CorruptInput&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

/// Seeded CBZ1 corpus: temporal and cross deltas and the documents they came
/// from at page sizes of 1-60 KB, one input spanning two 256 KiB blocks, one
/// incompressible input and the empty input.
std::vector<Bytes> pinned_corpus() {
  std::vector<Bytes> corpus;
  Bytes large;
  std::uint64_t seed = 1;
  for (const std::size_t kb : {1, 3, 7, 11, 18, 26, 34, 45, 55, 60}) {
    const std::size_t page = kb << 10;
    trace::TemplateConfig config;
    config.skeleton_bytes = page * 86 / 100;
    config.doc_unique_bytes = page * 6 / 100;
    config.volatile_bytes = page * 25 / 1000;
    config.personal_bytes = page / 100;
    const trace::DocumentTemplate tmpl(seed++, config);
    const Bytes base = tmpl.generate(0, 1, 0);
    const Bytes temporal = tmpl.generate(0, 1, 120 * util::kSecond);
    const Bytes cross = tmpl.generate(3, 9, 120 * util::kSecond);
    corpus.push_back(delta::encode(as_view(base), as_view(temporal)).delta);
    corpus.push_back(delta::encode(as_view(base), as_view(cross)).delta);
    corpus.push_back(base);
    corpus.push_back(cross);
    util::append(large, as_view(base));
    util::append(large, as_view(cross));
  }
  EXPECT_GT(large.size(), std::size_t{256} << 10);
  corpus.push_back(std::move(large));
  util::Rng rng(1729);
  Bytes noise(20000);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
  corpus.push_back(std::move(noise));
  corpus.emplace_back();
  return corpus;
}

TEST(Compressor, PinnedOutputOverSeededCorpus) {
  std::uint32_t crc = 0;
  std::uint64_t total = 0;
  for (const Bytes& input : pinned_corpus()) {
    const Bytes packed = compress(as_view(input));
    crc = util::crc32(as_view(packed), crc);
    total += packed.size();
  }
  EXPECT_EQ(total, 588734u);
  EXPECT_EQ(crc, 0x62911f94u);
}

TEST(Compressor, RatioOnHtmlLikeContentIsAtLeastTwoX) {
  // The paper attributes ~2x of its savings to gzip; our compressor must be
  // in that class on markup-heavy content.
  std::string s;
  for (int i = 0; i < 400; ++i) {
    s += "<tr><td class=\"price\">$" + std::to_string(i) + "</td><td>widget</td></tr>\n";
  }
  const Bytes input = to_bytes(s);
  EXPECT_LT(compressed_size(as_view(input)) * 2, input.size());
}

}  // namespace
}  // namespace cbde::compress
