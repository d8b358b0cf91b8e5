#include "compress/compressor.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <vector>

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

// zlib's _length_code: the length code of every match length.
constexpr std::array<std::uint8_t, kMaxMatch + 1> kLengthCode = [] {
  std::array<std::uint8_t, kMaxMatch + 1> table{};
  for (std::size_t code = 0; code < kLenBase.size(); ++code) {
    const std::size_t end =
        code + 1 < kLenBase.size() ? kLenBase[code + 1] : kMaxMatch + 1;
    for (std::size_t len = kLenBase[code]; len < end; ++len) {
      table[len] = static_cast<std::uint8_t>(code);
    }
  }
  return table;
}();

// zlib's _dist_code: distances 1..256 index the first half directly, longer
// ones by (distance - 1) >> 7 in the second half (every code from 257 on
// starts one past a multiple of 128).
constexpr std::array<std::uint8_t, 512> kDistCode = [] {
  std::array<std::uint8_t, 512> table{};
  for (std::size_t code = 0; code < kDistBase.size(); ++code) {
    const std::size_t end = kDistBase[code] + (std::size_t{1} << kDistExtra[code]);
    for (std::size_t dist = kDistBase[code]; dist < end; ++dist) {
      table[dist <= 256 ? dist - 1 : 256 + ((dist - 1) >> 7)] = static_cast<std::uint8_t>(code);
    }
  }
  return table;
}();

inline std::size_t length_code(std::size_t len) { return kLengthCode[len]; }

inline std::size_t distance_code(std::size_t dist) {
  return kDistCode[dist <= 256 ? dist - 1 : 256 + ((dist - 1) >> 7)];
}

/// Every input byte after the header decodes to at most this many output
/// bytes: a match costs at least two bits (one-bit length and distance
/// codes) for at most kMaxMatch bytes.
constexpr std::size_t kMaxExpansion = 8 / 2 * kMaxMatch;

/// Writes one block at a time. Per thread, like lz77's chain tables: the
/// token buffer keeps its capacity (at most one block's worth of tokens),
/// so steady-state compress() allocates only its output.
class BlockCoder {
 public:
  /// Tokenize `block` and choose its encoding; returns its wire size.
  std::size_t plan(util::BytesView block) {
    block_ = block;
    coded_bytes_ = 0;
    plan_huffman();
    return coded_bytes_ != 0 ? 1 + coded_bytes_
                             : 1 + util::uvarint_size(block.size()) + block.size();
  }

  /// Append the planned block to `out`.
  void write(util::Bytes& out, bool final) const {
    if (coded_bytes_ == 0) {
      out.push_back(static_cast<std::uint8_t>(final ? kFlagFinal : 0));
      util::put_uvarint(out, block_.size());
      util::append(out, block_);
      return;
    }
    out.push_back(static_cast<std::uint8_t>((final ? kFlagFinal : 0) | kFlagHuffman));
    const std::size_t start = out.size();
    BitWriter w(out);
    for (const auto len : lit_lengths_) w.write_bits(len, 4);
    for (const auto len : dist_lengths_) w.write_bits(len, 4);
    const HuffmanEncoder lit(lit_lengths_);
    const HuffmanEncoder dist(dist_lengths_);
    for (const Token& t : tokens_) {
      if (t.length == 0) {
        lit.encode(w, t.literal);
        continue;
      }
      // Code and extra bits go out as one write each (at most 20 and 28
      // bits): the same MSB-first bit sequence as separate writes.
      const std::size_t lc = length_code(t.length);
      const int len_extra = kLenExtra[lc];
      w.write_bits(static_cast<std::uint32_t>(lit.code_of(257 + lc)) << len_extra |
                       static_cast<std::uint32_t>(t.length - kLenBase[lc]),
                   lit.length_of(257 + lc) + len_extra);
      const std::size_t dc = distance_code(t.distance);
      const int dist_extra = kDistExtra[dc];
      w.write_bits(static_cast<std::uint32_t>(dist.code_of(dc)) << dist_extra |
                       static_cast<std::uint32_t>(t.distance - kDistBase[dc]),
                   dist.length_of(dc) + dist_extra);
    }
    lit.encode(w, kEob);
    w.align_to_byte();
    CBDE_ENSURE(out.size() - start == coded_bytes_);
  }

 private:
  void plan_huffman() {
    lz77_tokenize(block_, tokens_);
    std::array<std::uint64_t, kNumLitLen> lit_freq{};
    std::array<std::uint64_t, kNumDist> dist_freq{};
    lit_freq[kEob] = 1;
    for (const Token& t : tokens_) {
      if (t.length == 0) {
        ++lit_freq[t.literal];
      } else {
        ++lit_freq[257 + length_code(t.length)];
        ++dist_freq[distance_code(t.distance)];
      }
    }
    build_code_lengths(lit_freq, lit_lengths_);
    build_code_lengths(dist_freq, dist_lengths_);
    // The coded size follows from the frequencies: no trial encode.
    std::uint64_t bits = 4 * (kNumLitLen + kNumDist);
    for (std::size_t s = 0; s < kNumLitLen; ++s) bits += lit_freq[s] * lit_lengths_[s];
    for (std::size_t lc = 0; lc < kLenExtra.size(); ++lc) bits += lit_freq[257 + lc] * kLenExtra[lc];
    for (std::size_t dc = 0; dc < kNumDist; ++dc) {
      bits += dist_freq[dc] * (dist_lengths_[dc] + kDistExtra[dc]);
    }
    const std::size_t coded = static_cast<std::size_t>((bits + 7) / 8);
    if (coded < block_.size()) coded_bytes_ = coded;
  }

  util::BytesView block_;
  std::size_t coded_bytes_ = 0;  // 0: the block goes out stored
  std::vector<Token> tokens_;
  std::array<std::uint8_t, kNumLitLen> lit_lengths_{};
  std::array<std::uint8_t, kNumDist> dist_lengths_{};
};

BlockCoder& block_coder() {
  thread_local BlockCoder coder;
  return coder;
}

}  // namespace

util::Bytes compress(util::BytesView input) {
  // Anything larger could never round-trip through decompress()'s decode cap.
  CBDE_EXPECT(input.size() <= kMaxDecompressSize);
  BlockCoder& coder = block_coder();
  util::Bytes out;
  std::size_t pos = 0;
  do {  // the empty input is one stored, zero-length final block
    const std::size_t len = std::min(kBlockSize, input.size() - pos);
    const std::size_t wire = coder.plan(input.subspan(pos, len));
    if (pos == 0) {
      // Sized once the first block is planned: exact for single-block input.
      out.reserve(4 + util::uvarint_size(input.size()) + 4 + wire);
      util::append(out, std::string_view("CBZ1"));
      util::put_uvarint(out, input.size());
      const std::uint32_t crc = util::crc32(input);
      for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
    }
    pos += len;
    coder.write(out, pos == input.size());
  } while (pos < input.size());
  // Header (magic + size varint + crc) plus at least one block byte.
  CBDE_ENSURE(out.size() > 9);
  return out;
}

util::Bytes decompress(util::BytesView input) {
  std::size_t pos = 0;
  if (input.size() < 9 || util::as_string_view(input.subspan(0, 4)) != "CBZ1") {
    throw CorruptInput("cbz: bad magic");
  }
  pos = 4;
  const auto claimed = util::get_uvarint(input, pos);
  if (!claimed) throw CorruptInput("cbz: bad size varint");
  if (*claimed > kMaxDecompressSize) throw CorruptInput("cbz: claimed size exceeds decode cap");
  if (pos + 4 > input.size()) throw CorruptInput("cbz: truncated header");
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= static_cast<std::uint32_t>(input[pos++]) << (8 * i);
  // Checked before reserving `out`: a few framing bytes must not reserve a
  // claimed gigabyte.
  if (*claimed > (input.size() - pos) * kMaxExpansion) {
    throw CorruptInput("cbz: claimed size exceeds what the blocks can hold");
  }
  const auto size = static_cast<std::size_t>(*claimed);

  // Reserved, not resized: memory is touched only as bytes are decoded, and
  // every write below is checked against the claimed size first, so `out`
  // never reallocates.
  util::Bytes out;
  out.reserve(size);
  bool final = false;
  while (!final) {
    if (pos >= input.size()) throw CorruptInput("cbz: missing block");
    const std::uint8_t flags = input[pos++];
    final = (flags & kFlagFinal) != 0;
    if ((flags & kFlagHuffman) == 0) {
      const auto len = util::get_uvarint(input, pos);
      // Subtraction-form bound: `pos + *len` wraps for 64-bit length claims.
      if (!len || *len > input.size() - pos) throw CorruptInput("cbz: bad stored block");
      if (*len > size - out.size()) throw CorruptInput("cbz: output exceeds declared size");
      util::append(out, input.subspan(pos, static_cast<std::size_t>(*len)));
      pos += static_cast<std::size_t>(*len);
      continue;
    }
    BitReader r(input.subspan(pos));
    try {
      std::array<std::uint8_t, kNumLitLen + kNumDist> lengths{};
      for (auto& len : lengths) len = static_cast<std::uint8_t>(r.read_bits(4));
      const HuffmanDecoder lit_dec{std::span(lengths).first(kNumLitLen)};
      const HuffmanDecoder dist_dec{std::span(lengths).subspan(kNumLitLen)};
      while (true) {
        const std::size_t sym = lit_dec.decode(r);
        if (sym < 256) {
          if (out.size() == size) throw CorruptInput("cbz: output exceeds declared size");
          out.push_back(static_cast<std::uint8_t>(sym));
          continue;
        }
        if (sym == kEob) break;
        const std::size_t lc = sym - 257;
        if (lc >= kLenBase.size()) throw CorruptInput("cbz: bad length code");
        const std::size_t len = kLenBase[lc] + r.read_bits(kLenExtra[lc]);
        const std::size_t dc = dist_dec.decode(r);
        if (dc >= kDistBase.size()) throw CorruptInput("cbz: bad distance code");
        const std::size_t dist = kDistBase[dc] + r.read_bits(kDistExtra[dc]);
        const std::size_t written = out.size();
        if (dist == 0 || dist > written) throw CorruptInput("cbz: distance out of range");
        if (len > size - written) throw CorruptInput("cbz: output exceeds declared size");
        out.resize(written + len);
        std::uint8_t* const to = out.data() + written;
        const std::uint8_t* const from = to - dist;
        if (dist >= len) {
          std::memcpy(to, from, len);
        } else {
          for (std::size_t i = 0; i < len; ++i) to[i] = from[i];  // overlapping run
        }
      }
    } catch (const std::invalid_argument& e) {
      throw CorruptInput(std::string("cbz: ") + e.what());
    }
    r.align_to_byte();
    pos += r.position();
  }
  if (out.size() != size) throw CorruptInput("cbz: size mismatch");
  if (util::crc32(util::as_view(out)) != crc) throw CorruptInput("cbz: checksum mismatch");
  CBDE_ENSURE(out.size() <= kMaxDecompressSize);
  return out;
}

std::size_t compressed_size(util::BytesView input) {
  CBDE_EXPECT(input.size() <= kMaxDecompressSize);
  BlockCoder& coder = block_coder();
  // Magic, size varint and crc, then each block's planned wire size.
  std::size_t size = 8 + util::uvarint_size(input.size());
  std::size_t pos = 0;
  do {
    const std::size_t len = std::min(kBlockSize, input.size() - pos);
    size += coder.plan(input.subspan(pos, len));
    pos += len;
  } while (pos < input.size());
  return size;
}

}  // namespace cbde::compress
