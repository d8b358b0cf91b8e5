#include "compress/compressor.hpp"

#include <algorithm>
#include <array>

#include "compress/bitio.hpp"
#include "compress/huffman.hpp"
#include "compress/lz77.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde::compress {
namespace {

constexpr std::size_t kNumLitLen = 286;  // 0-255 literals, 256 EOB, 257-285 lengths
constexpr std::size_t kNumDist = 30;
constexpr std::size_t kEob = 256;
constexpr std::size_t kBlockSize = 256 * 1024;

constexpr std::uint8_t kFlagFinal = 0x01;
constexpr std::uint8_t kFlagHuffman = 0x02;

// DEFLATE length code table: code 257+i covers lengths [base[i], base[i]+2^extra[i]).
constexpr std::array<std::uint16_t, 29> kLenBase = {
    3,  4,  5,  6,  7,  8,  9,  10, 11,  13,  15,  17,  19,  23, 27,
    31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<std::uint8_t, 29> kLenExtra = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1,
                                                    1, 1, 2, 2, 2, 2, 3, 3, 3, 3,
                                                    4, 4, 4, 4, 5, 5, 5, 5, 0};

// DEFLATE distance code table.
constexpr std::array<std::uint16_t, 30> kDistBase = {
    1,    2,    3,    4,    5,    7,     9,     13,    17,   25,
    33,   49,   65,   97,   129,  193,   257,   385,   513,  769,
    1025, 1537, 2049, 3073, 4097, 6145,  8193,  12289, 16385, 24577};
constexpr std::array<std::uint8_t, 30> kDistExtra = {0, 0, 0,  0,  1,  1,  2,  2,  3,  3,
                                                     4, 4, 5,  5,  6,  6,  7,  7,  8,  8,
                                                     9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

std::size_t length_code(std::size_t len) {
  CBDE_ASSERT(len >= kMinMatch && len <= kMaxMatch);
  // Last code whose base <= len.
  auto it = std::upper_bound(kLenBase.begin(), kLenBase.end(), len);
  return static_cast<std::size_t>(it - kLenBase.begin()) - 1;
}

std::size_t distance_code(std::size_t dist) {
  CBDE_ASSERT(dist >= 1 && dist <= kWindowSize);
  auto it = std::upper_bound(kDistBase.begin(), kDistBase.end(), dist);
  return static_cast<std::size_t>(it - kDistBase.begin()) - 1;
}

void write_lengths_nibbles(BitWriter& w, const std::vector<std::uint8_t>& lengths) {
  for (auto len : lengths) w.write_bits(len, 4);
}

std::vector<std::uint8_t> read_lengths_nibbles(BitReader& r, std::size_t count) {
  std::vector<std::uint8_t> lengths(count);
  for (auto& len : lengths) len = static_cast<std::uint8_t>(r.read_bits(4));
  return lengths;
}

/// Emit one block. Falls back to a stored block if the Huffman encoding
/// would be larger than the raw bytes.
void emit_block(util::Bytes& out, util::BytesView block, bool final) {
  const auto tokens = lz77_tokenize(block);

  // Stack-allocated frequency tables (2.5 KB): the old per-block vectors
  // were two heap allocations on every 256 KB of every compressed response.
  std::array<std::uint64_t, kNumLitLen> lit_freq{};
  std::array<std::uint64_t, kNumDist> dist_freq{};
  lit_freq[kEob] = 1;
  for (const Token& t : tokens) {
    if (t.length == 0) {
      ++lit_freq[t.literal];
    } else {
      ++lit_freq[257 + length_code(t.length)];
      ++dist_freq[distance_code(t.distance)];
    }
  }
  const auto lit_lengths = build_code_lengths(lit_freq);
  const auto dist_lengths = build_code_lengths(dist_freq);

  util::Bytes coded;
  coded.reserve(block.size() / 2 + (kNumLitLen + kNumDist) / 2 + 16);
  {
    BitWriter w(coded);
    write_lengths_nibbles(w, lit_lengths);
    write_lengths_nibbles(w, dist_lengths);
    HuffmanEncoder lit_enc(lit_lengths);
    HuffmanEncoder dist_enc(dist_lengths);
    for (const Token& t : tokens) {
      if (t.length == 0) {
        lit_enc.encode(w, t.literal);
      } else {
        const std::size_t lc = length_code(t.length);
        lit_enc.encode(w, 257 + lc);
        w.write_bits(static_cast<std::uint32_t>(t.length - kLenBase[lc]), kLenExtra[lc]);
        const std::size_t dc = distance_code(t.distance);
        dist_enc.encode(w, dc);
        w.write_bits(static_cast<std::uint32_t>(t.distance - kDistBase[dc]), kDistExtra[dc]);
      }
    }
    lit_enc.encode(w, kEob);
    w.align_to_byte();
  }

  if (coded.size() < block.size()) {
    out.push_back(static_cast<std::uint8_t>((final ? kFlagFinal : 0) | kFlagHuffman));
    util::append(out, util::as_view(coded));
  } else {
    out.push_back(static_cast<std::uint8_t>(final ? kFlagFinal : 0));
    util::put_uvarint(out, block.size());
    util::append(out, block);
  }
}

}  // namespace

util::Bytes compress(util::BytesView input) {
  // Anything larger could never round-trip through decompress()'s decode cap.
  CBDE_EXPECT(input.size() <= kMaxDecompressSize);
  util::Bytes out;
  out.reserve(input.size() / 3 + 32);
  util::append(out, std::string_view("CBZ1"));
  util::put_uvarint(out, input.size());
  const std::uint32_t crc = util::crc32(input);
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));

  if (input.empty()) {
    out.push_back(kFlagFinal);  // stored, zero-length final block
    util::put_uvarint(out, 0);
    return out;
  }
  std::size_t pos = 0;
  while (pos < input.size()) {
    const std::size_t len = std::min(kBlockSize, input.size() - pos);
    const bool final = pos + len == input.size();
    emit_block(out, input.subspan(pos, len), final);
    pos += len;
  }
  // Header (magic + size varint + crc) plus at least one block byte.
  CBDE_ENSURE(out.size() > 9);
  return out;
}

util::Bytes decompress(util::BytesView input) {
  util::Bytes out;
  decompress_into(input, out);
  return out;
}

void decompress_into(util::BytesView input, util::Bytes& out) {
  std::size_t pos = 0;
  if (input.size() < 9 || util::as_string_view(input.subspan(0, 4)) != "CBZ1") {
    throw CorruptInput("cbz: bad magic");
  }
  pos = 4;
  const auto size = util::get_uvarint(input, pos);
  if (!size) throw CorruptInput("cbz: bad size varint");
  if (*size > kMaxDecompressSize) throw CorruptInput("cbz: claimed size exceeds decode cap");
  if (pos + 4 > input.size()) throw CorruptInput("cbz: truncated header");
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(input[pos++]) << (8 * i);

  out.clear();
  out.reserve(static_cast<std::size_t>(*size));
  bool final = false;
  while (!final) {
    if (pos >= input.size()) throw CorruptInput("cbz: missing block");
    const std::uint8_t flags = input[pos++];
    final = (flags & kFlagFinal) != 0;
    if ((flags & kFlagHuffman) == 0) {
      const auto len = util::get_uvarint(input, pos);
      // Subtraction-form bound: `pos + *len` wraps for 64-bit length claims.
      if (!len || *len > input.size() - pos) throw CorruptInput("cbz: bad stored block");
      util::append(out, input.subspan(pos, static_cast<std::size_t>(*len)));
      pos += static_cast<std::size_t>(*len);
      continue;
    }
    BitReader r(input.subspan(pos));
    try {
      const auto lit_lengths = read_lengths_nibbles(r, kNumLitLen);
      const auto dist_lengths = read_lengths_nibbles(r, kNumDist);
      HuffmanDecoder lit_dec(lit_lengths);
      HuffmanDecoder dist_dec(dist_lengths);
      while (true) {
        const std::size_t sym = lit_dec.decode(r);
        if (sym == kEob) break;
        if (sym < 256) {
          out.push_back(static_cast<std::uint8_t>(sym));
          continue;
        }
        const std::size_t lc = sym - 257;
        if (lc >= kLenBase.size()) throw CorruptInput("cbz: bad length code");
        const std::size_t len = kLenBase[lc] + r.read_bits(kLenExtra[lc]);
        const std::size_t dc = dist_dec.decode(r);
        if (dc >= kDistBase.size()) throw CorruptInput("cbz: bad distance code");
        const std::size_t dist = kDistBase[dc] + r.read_bits(kDistExtra[dc]);
        if (dist == 0 || dist > out.size()) throw CorruptInput("cbz: distance out of range");
        const std::size_t start = out.size() - dist;
        for (std::size_t i = 0; i < len; ++i) out.push_back(out[start + i]);
        if (out.size() > *size) throw CorruptInput("cbz: output exceeds declared size");
      }
    } catch (const std::invalid_argument& e) {
      throw CorruptInput(std::string("cbz: ") + e.what());
    }
    r.align_to_byte();
    pos += r.position();
  }
  if (out.size() != *size) throw CorruptInput("cbz: size mismatch");
  if (util::crc32(util::as_view(out)) != crc) throw CorruptInput("cbz: checksum mismatch");
  CBDE_ENSURE(out.size() <= kMaxDecompressSize);
}

std::size_t compressed_size(util::BytesView input) {
  return compress(input).size();
}

}  // namespace cbde::compress
