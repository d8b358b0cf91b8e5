// Bit-level I/O for the compressed block format.
//
// Bits are written MSB-first within each byte; Huffman codes are emitted
// most-significant-bit first, which makes canonical decoding a simple
// accumulate-and-compare loop and lets the decoder's primary table index a
// peek of the next bits directly.
//
// Both ends move whole words through a 64-bit buffer: the writer stores
// four bytes at a time, and the reader refills with one 8-byte load, so a
// peek or a skip is a shift.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "util/bytes.hpp"
#include "util/contracts.hpp"

namespace cbde::compress {

class BitWriter {
 public:
  explicit BitWriter(util::Bytes& out) : out_(out) {}

  /// Write the low `nbits` bits of `value` (at most 32), most significant
  /// first. Whole 32-bit words reach `out` as they fill; the rest waits for
  /// align_to_byte().
  void write_bits(std::uint32_t value, int nbits) {
    CBDE_EXPECT(nbits >= 0 && nbits <= 32);
    const std::uint64_t mask = (std::uint64_t{1} << nbits) - 1;
    buffer_ = (buffer_ << nbits) | (value & mask);
    nbuffered_ += nbits;
    if (nbuffered_ >= 32) flush_word();
  }

  /// Pad with zero bits to the next byte boundary and move every pending
  /// byte into `out`.
  void align_to_byte();

  /// Write a whole byte (must be byte-aligned).
  void write_byte(std::uint8_t byte);

  bool aligned() const { return nbuffered_ % 8 == 0; }

 private:
  void flush_word() {
    nbuffered_ -= 32;
    const auto word = static_cast<std::uint32_t>(buffer_ >> nbuffered_);
    // lint: growth-ok the caller's output; compress() reserves it exactly only for single-block input
    out_.push_back(static_cast<std::uint8_t>(word >> 24));
    out_.push_back(static_cast<std::uint8_t>(word >> 16));
    out_.push_back(static_cast<std::uint8_t>(word >> 8));
    out_.push_back(static_cast<std::uint8_t>(word));
  }

  util::Bytes& out_;
  std::uint64_t buffer_ = 0;  // pending bits in the low nbuffered_ bits
  int nbuffered_ = 0;         // < 32 between calls
};

class BitReader {
 public:
  explicit BitReader(util::BytesView in)
      : next_(in.data()), end_(in.data() + in.size()), remaining_(in.size() * 8),
        total_(remaining_) {}

  /// The next `nbits` bits (at most 32) without consuming them; bits past
  /// the end of the input read as zero.
  std::uint32_t peek_bits(int nbits) {
    if (count_ < nbits) refill();
    return nbits == 0 ? 0 : static_cast<std::uint32_t>(buffer_ >> (64 - nbits));
  }

  /// Consume `nbits` bits (at most 32). Throws std::invalid_argument past
  /// EOF.
  void skip_bits(int nbits) {
    if (count_ < nbits) refill();
    if (static_cast<std::size_t>(nbits) > remaining_) {
      throw std::invalid_argument("BitReader: read past end of input");
    }
    remaining_ -= static_cast<std::size_t>(nbits);
    buffer_ <<= nbits;
    count_ -= nbits;
  }

  /// Read `nbits` bits (MSB-first). Throws std::invalid_argument past EOF.
  std::uint32_t read_bits(int nbits) {
    CBDE_EXPECT(nbits >= 0 && nbits <= 32);
    const std::uint32_t value = peek_bits(nbits);
    skip_bits(nbits);
    return value;
  }

  /// Read a single bit.
  std::uint32_t read_bit() { return read_bits(1); }

  /// Skip to the next byte boundary.
  void align_to_byte() { skip_bits(static_cast<int>(remaining_ % 8)); }

  /// Read a whole byte (must be byte-aligned).
  std::uint8_t read_byte();

  /// Bytes fully or partially consumed so far.
  std::size_t position() const { return (total_ - remaining_ + 7) / 8; }

 private:
  /// Top up the buffer to at least 57 bits, zero-padded past the end.
  void refill() {
    if (end_ - next_ >= 8) {
      // One big-endian load. The bits below the whole bytes taken stay in
      // the buffer: they are the next input bits, so the next load ORs the
      // same values over them.
      std::uint8_t bytes[8];
      std::memcpy(bytes, next_, 8);
      std::uint64_t word = 0;
      for (const std::uint8_t b : bytes) word = (word << 8) | b;
      buffer_ |= word >> count_;
      const int taken = (63 - count_) >> 3;
      next_ += taken;
      count_ += 8 * taken;
      return;
    }
    for (; count_ <= 56; count_ += 8) {
      if (next_ != end_) buffer_ |= std::uint64_t{*next_++} << (56 - count_);
    }
  }

  const std::uint8_t* next_;  // first input byte not yet in the buffer
  const std::uint8_t* end_;
  std::size_t remaining_;     // input bits not yet consumed
  std::size_t total_;
  std::uint64_t buffer_ = 0;  // next bits, most significant first
  int count_ = 0;             // bits in buffer_, padding included
};

}  // namespace cbde::compress
