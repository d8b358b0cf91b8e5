#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/bitio.hpp"
#include "compress/compressor.hpp"
#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "delta/delta.hpp"
#include "trace/document.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace cbde::compress {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

std::vector<std::uint8_t> code_lengths(std::span<const std::uint64_t> freqs) {
  std::vector<std::uint8_t> lengths(freqs.size());
  build_code_lengths(freqs, lengths);
  return lengths;
}

std::vector<Token> tokenize(util::BytesView input) {
  std::vector<Token> tokens;
  lz77_tokenize(input, tokens);
  return tokens;
}

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
  const auto lengths = code_lengths(freqs);
  EXPECT_LE(lengths[0], lengths[1]);
  EXPECT_LE(lengths[1], lengths[3]);
  for (auto len : lengths) EXPECT_GT(len, 0);
}

TEST(Huffman, SingleSymbolGetsLengthOne) {
  std::vector<std::uint64_t> freqs(10, 0);
  freqs[7] = 5;
  const auto lengths = code_lengths(freqs);
  EXPECT_EQ(lengths[7], 1);
  for (std::size_t s = 0; s < 10; ++s) {
    if (s != 7) {
      EXPECT_EQ(lengths[s], 0);
    }
  }
}

TEST(Huffman, AllZeroFrequenciesGiveEmptyCode) {
  const auto lengths = code_lengths(std::vector<std::uint64_t>(8, 0));
  for (auto len : lengths) EXPECT_EQ(len, 0);
}

TEST(Huffman, KraftInequalityHolds) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::uint64_t> freqs(300);
    for (auto& f : freqs) f = rng.next_below(10000);
    const auto lengths = code_lengths(freqs);
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
  const auto lengths = code_lengths(freqs);
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

/// Deepest leaf of an unconstrained Huffman tree over `freqs` (a plain
/// min-heap reference, independent of build_code_lengths).
int unlimited_depth(const std::vector<std::uint64_t>& freqs) {
  using Entry = std::pair<std::uint64_t, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  std::vector<int> parent;
  for (const std::uint64_t f : freqs) {
    if (f == 0) continue;
    heap.emplace(f, static_cast<int>(parent.size()));
    parent.push_back(-1);
  }
  const int leaves = static_cast<int>(parent.size());
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    const int node = static_cast<int>(parent.size());
    parent.push_back(-1);
    parent[static_cast<std::size_t>(a)] = node;
    parent[static_cast<std::size_t>(b)] = node;
    heap.emplace(fa + fb, node);
  }
  int deepest = 0;
  for (int leaf = 0; leaf < leaves; ++leaf) {
    int depth = 0;
    for (int n = leaf; parent[static_cast<std::size_t>(n)] >= 0;
         n = parent[static_cast<std::size_t>(n)]) {
      ++depth;
    }
    deepest = std::max(deepest, depth);
  }
  return deepest;
}

TEST(Huffman, PinnedCodeLengthsOverSeededFrequencies) {
  // Every tree shape the block coder can meet, and the 15-bit repair path
  // the CBZ1 corpus pin alone never reaches.
  util::Rng rng(2002);
  std::vector<std::vector<std::uint64_t>> corpus;
  for (const std::size_t n : {30, 286, 300}) {
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<std::uint64_t> freqs(n);
      for (auto& f : freqs) f = rng.next_below(3) == 0 ? 0 : rng.next_below(5000);
      corpus.push_back(std::move(freqs));
    }
    std::vector<std::uint64_t> ties(n);
    for (auto& f : ties) f = 1 + rng.next_below(3);
    corpus.push_back(std::move(ties));
    corpus.emplace_back(n, 7);
    std::vector<std::uint64_t> single(n, 0);
    single[rng.next_below(n)] = 42;
    corpus.push_back(std::move(single));
  }
  std::vector<std::vector<std::uint64_t>> deep;
  std::vector<std::uint64_t> geometric(40);
  for (std::size_t i = 0; i < geometric.size(); ++i) geometric[i] = std::uint64_t{1} << i;
  deep.push_back(geometric);
  std::vector<std::uint64_t> fibonacci(286, 0);
  std::uint64_t a = 1;
  std::uint64_t b = 1;
  for (std::size_t i = 0; i < 40; ++i) {
    fibonacci[(i * 7) % fibonacci.size()] = a;
    a = std::exchange(b, a + b);
  }
  deep.push_back(fibonacci);
  std::vector<std::uint64_t> skewed(300);
  for (std::size_t i = 0; i < skewed.size(); ++i) {
    skewed[i] = i < 30 ? std::uint64_t{1} << (i + 10) : 1 + rng.next_below(3);
  }
  deep.push_back(skewed);
  for (const auto& freqs : deep) {
    EXPECT_GT(unlimited_depth(freqs), kMaxCodeLen);  // limit_lengths must repair
    corpus.push_back(freqs);
  }

  std::uint32_t crc = 0;
  std::size_t deep_seen = 0;
  for (const auto& freqs : corpus) {
    const auto lengths = code_lengths(freqs);
    ASSERT_EQ(lengths.size(), freqs.size());
    double kraft = 0;
    for (const auto len : lengths) {
      ASSERT_LE(len, kMaxCodeLen);
      if (len) kraft += std::pow(2.0, -static_cast<double>(len));
    }
    EXPECT_LE(kraft, 1.0 + 1e-12);
    if (*std::max_element(lengths.begin(), lengths.end()) == kMaxCodeLen) ++deep_seen;
    crc = util::crc32(util::BytesView(lengths.data(), lengths.size()), crc);
  }
  EXPECT_GE(deep_seen, deep.size());
  EXPECT_EQ(corpus.size(), 30u);
  EXPECT_EQ(crc, 0x039108d2u);
}

TEST(Huffman, DecodesCodesLongerThanPrimaryTable) {
  std::vector<std::uint64_t> freqs(20);
  for (std::size_t i = 0; i < freqs.size(); ++i) freqs[i] = std::uint64_t{1} << i;
  const auto lengths = code_lengths(freqs);
  EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()), kMaxCodeLen);
  HuffmanEncoder enc(lengths);
  HuffmanDecoder dec(lengths);
  Bytes buf;
  {
    BitWriter w(buf);
    for (std::size_t s = 0; s < freqs.size(); ++s) enc.encode(w, s);
    for (std::size_t s = 0; s < freqs.size(); ++s) enc.encode(w, freqs.size() - 1 - s);
    w.align_to_byte();
  }
  BitReader r(as_view(buf));
  for (std::size_t s = 0; s < freqs.size(); ++s) EXPECT_EQ(dec.decode(r), s);
  for (std::size_t s = 0; s < freqs.size(); ++s) EXPECT_EQ(dec.decode(r), freqs.size() - 1 - s);
}

TEST(Huffman, StreamEndingInsideACodeThrows) {
  // Codes 0, 10, 110, 111: six 1-bit codes, then "11" and the end of input.
  const std::vector<std::uint8_t> lengths{1, 2, 3, 3};
  const HuffmanDecoder dec(lengths);
  const Bytes buf{0x03};
  BitReader r(as_view(buf));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(dec.decode(r), 0u);
  EXPECT_THROW(dec.decode(r), std::invalid_argument);

  // A 15-bit code cut after its first byte.
  std::vector<std::uint64_t> freqs(20);
  for (std::size_t i = 0; i < freqs.size(); ++i) freqs[i] = std::uint64_t{1} << i;
  const auto deep = code_lengths(freqs);
  ASSERT_EQ(deep[0], kMaxCodeLen);
  Bytes coded;
  {
    BitWriter w(coded);
    HuffmanEncoder(deep).encode(w, 0);
    w.align_to_byte();
  }
  ASSERT_EQ(coded.size(), 2u);
  coded.pop_back();
  BitReader cut(as_view(coded));
  EXPECT_THROW(HuffmanDecoder(deep).decode(cut), std::invalid_argument);
}

TEST(Huffman, IncompleteCodeRejectsTheUnusedBit) {
  // A lone symbol gets the 1-bit code "0"; "1" starts no code.
  const std::vector<std::uint8_t> lengths{0, 1, 0};
  const HuffmanDecoder dec(lengths);
  const Bytes one_byte{0x40};  // 0, then the unused 1
  BitReader r(as_view(one_byte));
  EXPECT_EQ(dec.decode(r), 1u);
  EXPECT_THROW(dec.decode(r), std::invalid_argument);
  const Bytes two_bytes{0x80, 0x00};  // the unused 1 with 15 bits to read
  BitReader r2(as_view(two_bytes));
  EXPECT_THROW(dec.decode(r2), std::invalid_argument);
}

// ---------------------------------------------------------------- lz77

TEST(Lz77, RoundTripRepetitiveInput) {
  std::string s;
  for (int i = 0; i < 200; ++i) s += "abcabcabc-";
  const Bytes input = to_bytes(s);
  const auto tokens = tokenize(as_view(input));
  EXPECT_LT(tokens.size(), input.size() / 3);  // matches found
  EXPECT_EQ(lz77_reconstruct(tokens), input);
}

TEST(Lz77, HandlesOverlappingMatches) {
  // "aaaa..." forces distance-1 overlapping copies.
  const Bytes input(500, 'a');
  const auto tokens = tokenize(as_view(input));
  EXPECT_EQ(lz77_reconstruct(tokens), input);
  EXPECT_LT(tokens.size(), 10u);
}

TEST(Lz77, EmptyAndTinyInputs) {
  std::vector<Token> tokens(5);
  lz77_tokenize({}, tokens);  // clears a reused buffer
  EXPECT_TRUE(tokens.empty());
  const Bytes two = to_bytes("ab");
  lz77_tokenize(as_view(two), tokens);
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].length, 0);
  EXPECT_EQ(lz77_reconstruct(tokens), two);
}

TEST(Lz77, RandomDataMostlyLiterals) {
  util::Rng rng(123);
  Bytes input(4096);
  for (auto& b : input) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto tokens = tokenize(as_view(input));
  EXPECT_EQ(lz77_reconstruct(tokens), input);
}

TEST(Lz77, MatchLengthNeverExceedsMax) {
  const Bytes input(5000, 'x');
  for (const auto& t : tokenize(as_view(input))) {
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

TEST(Compressor, PinnedOutputOverShortInputs) {
  // Every length across the stored/Huffman boundary (a Huffman block costs
  // at least 159 bytes): markup-like text, noise and a single-byte run.
  static constexpr std::string_view kVocab[] = {"<td>", "</td>", "price", " class=",
                                                "$1", "widget", "\n", "<tr>"};
  util::Rng rng(160);
  std::string text;
  while (text.size() < 400) text += kVocab[rng.next_below(8)];
  std::uint32_t crc = 0;
  std::uint64_t total = 0;
  for (std::size_t len = 0; len <= 400; ++len) {
    Bytes noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (const Bytes& input : {Bytes(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(len)),
                               noise, Bytes(len, 'a')}) {
      const Bytes packed = compress(as_view(input));
      ASSERT_EQ(decompress(as_view(packed)), input);
      crc = util::crc32(as_view(packed), crc);
      total += packed.size();
    }
  }
  EXPECT_EQ(total, 213511u);
  EXPECT_EQ(crc, 0xc75d5e62u);
}

/// A one-block CBZ1 stream with hand-chosen literal/length code lengths and
/// no distance codes; `symbols` are coded with the canonical codes of
/// `lit_lengths`, whatever their Kraft sum.
Bytes crafted_stream(const std::vector<std::uint8_t>& lit_lengths,
                     const std::vector<std::size_t>& symbols, std::string_view plain) {
  Bytes stream = to_bytes("CBZ1");
  util::put_uvarint(stream, plain.size());
  const std::uint32_t crc = util::crc32(as_view(to_bytes(plain)));
  for (int i = 0; i < 4; ++i) stream.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  stream.push_back(0x03);  // final, Huffman
  // Canonical codes by hand: HuffmanEncoder would reject nothing here, but
  // the point is to pin what the decoder does with any length vector.
  std::uint32_t count[kMaxCodeLen + 1] = {};
  for (const auto len : lit_lengths) count[len] += len ? 1 : 0;
  std::uint32_t next[kMaxCodeLen + 1] = {};
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  std::vector<std::uint32_t> codes(lit_lengths.size());
  for (std::size_t s = 0; s < lit_lengths.size(); ++s) {
    if (lit_lengths[s]) codes[s] = next[lit_lengths[s]]++;
  }
  BitWriter w(stream);
  for (std::size_t s = 0; s < 286; ++s) w.write_bits(s < lit_lengths.size() ? lit_lengths[s] : 0, 4);
  for (std::size_t s = 0; s < 30; ++s) w.write_bits(0, 4);
  for (const std::size_t s : symbols) w.write_bits(codes[s], lit_lengths[s]);
  w.align_to_byte();
  return stream;
}

TEST(Compressor, OverSubscribedLengthsDecodeLikeTheCanonicalLoop) {
  // End-of-block "0", then 'a' "10", 'b' "11" and 'c' at code 4 of length
  // 2, which no 2-bit input reaches (Kraft sum 5/4).
  std::vector<std::uint8_t> lengths(257, 0);
  lengths[256] = 1;
  lengths['a'] = 2;
  lengths['b'] = 2;
  lengths['c'] = 2;
  EXPECT_EQ(decompress(as_view(crafted_stream(lengths, {'a', 'b', 'b', 256}, "abb"))),
            to_bytes("abb"));
  // Over-subscribed past the 9-bit primary table: after "0" and "10", the
  // 284 codes of length 10 start at 768, so the last 27 are unreachable.
  std::vector<std::uint8_t> wide(286, 10);
  wide[256] = 1;
  wide['x'] = 2;
  const std::string_view plain("\x00\xff\x07", 3);
  EXPECT_EQ(decompress(as_view(crafted_stream(wide, {0, 255, 7, 256}, plain))), to_bytes(plain));
  // A block whose bits end inside a code is rejected.
  Bytes cut = crafted_stream(wide, {0, 255, 7, 256}, plain);
  cut.pop_back();
  EXPECT_THROW(decompress(as_view(cut)), CorruptInput);
}

TEST(Compressor, OversizedClaimRejectedBeforeReserving) {
  // 13 bytes claiming 1 GiB: no block can decode to that much. The claim
  // is checked against the input's size before the output is reserved, so
  // the error is the claim's, not the missing block's found after a 1 GiB
  // reservation.
  Bytes stream = to_bytes("CBZ1");
  util::put_uvarint(stream, std::uint64_t{1} << 30);
  for (int i = 0; i < 4; ++i) stream.push_back(0);
  ASSERT_EQ(stream.size(), 13u);
  try {
    (void)decompress(as_view(stream));
    FAIL() << "oversized claim accepted";
  } catch (const CorruptInput& e) {
    EXPECT_STREQ(e.what(), "cbz: claimed size exceeds what the blocks can hold");
  }
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

TEST(Compressor, CompressedSizeMatchesCompress) {
  // compressed_size() adds up block plans without writing a stream: it must
  // agree with compress() on both sides of the stored/Huffman boundary and
  // across the pinned corpus, multi-block input included.
  util::Rng rng(400);
  std::string text;
  while (text.size() < 400) text += "<td class=\"p\">$" + std::to_string(rng.next_below(99)) + "</td>";
  for (std::size_t len = 0; len <= 400; ++len) {
    Bytes noise(len);
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
    for (const Bytes& input : {Bytes(text.begin(), text.begin() + static_cast<std::ptrdiff_t>(len)),
                               noise, Bytes(len, 'a')}) {
      ASSERT_EQ(compressed_size(as_view(input)), compress(as_view(input)).size()) << len;
    }
  }
  for (const Bytes& input : pinned_corpus()) {
    EXPECT_EQ(compressed_size(as_view(input)), compress(as_view(input)).size()) << input.size();
  }
}

}  // namespace
}  // namespace cbde::compress
