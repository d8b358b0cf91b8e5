// Canonical Huffman coding.
//
// Code lengths are built from symbol frequencies with the two-queue Huffman
// construction, then limited to kMaxCodeLen bits by a Kraft-sum repair
// pass. Codes are assigned canonically (sorted by length, then symbol), so
// only the length vector needs to be transmitted.
//
// Every table lives in a fixed array sized for kMaxSymbols, so building a
// code, encoding and decoding allocate nothing. The decoder resolves codes
// of up to kPrimaryBits bits with one lookup of the next kPrimaryBits bits
// of input; longer and invalid codes take the bit-by-bit canonical loop.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "compress/bitio.hpp"

namespace cbde::compress {

inline constexpr int kMaxCodeLen = 15;

/// Largest alphabet build_code_lengths and the coders accept.
inline constexpr std::size_t kMaxSymbols = 512;

/// Build canonical code lengths for `freqs` into `lengths` (same size, at
/// most kMaxSymbols). Symbols with zero frequency get length 0 (absent). If
/// fewer than two symbols occur, the occurring symbol gets length 1 so the
/// code is still decodable.
void build_code_lengths(std::span<const std::uint64_t> freqs, std::span<std::uint8_t> lengths);

/// Canonical Huffman encoder: maps symbol -> (code, length).
class HuffmanEncoder {
 public:
  /// `lengths[i]` is the code length of symbol i (0 = absent).
  explicit HuffmanEncoder(std::span<const std::uint8_t> lengths);

  void encode(BitWriter& w, std::size_t symbol) const {
    CBDE_EXPECT(symbol < size_ && lengths_[symbol] > 0);
    w.write_bits(codes_[symbol], lengths_[symbol]);
  }

  std::uint8_t length_of(std::size_t symbol) const { return lengths_[symbol]; }
  std::uint16_t code_of(std::size_t symbol) const { return codes_[symbol]; }

 private:
  std::size_t size_ = 0;
  std::array<std::uint8_t, kMaxSymbols> lengths_{};
  std::array<std::uint16_t, kMaxSymbols> codes_{};
};

/// Canonical Huffman decoder: a kPrimaryBits-bit lookup table in front of
/// the per-length first-code tables.
class HuffmanDecoder {
 public:
  static constexpr int kPrimaryBits = 9;

  explicit HuffmanDecoder(std::span<const std::uint8_t> lengths);

  /// Decode one symbol. Throws std::invalid_argument on an invalid code or
  /// when the code runs past the end of the input.
  std::size_t decode(BitReader& r) const {
    const std::uint16_t entry = primary_[r.peek_bits(kPrimaryBits)];
    if (entry == 0) return decode_canonical(r);
    r.skip_bits(entry & 0xF);
    return entry >> 4;
  }

 private:
  /// Bit-by-bit canonical decode: the shortest length whose first-code
  /// range holds the next bits wins.
  std::size_t decode_canonical(BitReader& r) const;

  // For each length L: first canonical code of that length, the index into
  // symbols_ where codes of length L start, and the count of such codes.
  std::uint32_t first_code_[kMaxCodeLen + 1] = {};
  std::uint32_t first_index_[kMaxCodeLen + 1] = {};
  std::uint32_t count_[kMaxCodeLen + 1] = {};
  std::array<std::uint16_t, kMaxSymbols> symbols_{};  // sorted by (length, symbol)
  // Indexed by the next kPrimaryBits bits: symbol << 4 | length of the
  // shortest code they start with, or 0 when no code of at most
  // kPrimaryBits bits matches.
  std::array<std::uint16_t, std::size_t{1} << kPrimaryBits> primary_{};
};

}  // namespace cbde::compress
