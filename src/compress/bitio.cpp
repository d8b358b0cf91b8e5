#include "compress/bitio.hpp"

namespace cbde::compress {

void BitWriter::write_bits(std::uint32_t value, int nbits) {
  CBDE_EXPECT(nbits >= 0 && nbits <= 24);
  if (nbits < 32) value &= (1u << nbits) - 1;
  buffer_ = (buffer_ << nbits) | value;
  nbuffered_ += nbits;
  while (nbuffered_ >= 8) {
    nbuffered_ -= 8;
    // lint: growth-ok bytes land in the caller's output buffer, which compress() reserves up front
    out_.push_back(static_cast<std::uint8_t>(buffer_ >> nbuffered_));
  }
  buffer_ &= (1u << nbuffered_) - 1;
}

void BitWriter::align_to_byte() {
  if (nbuffered_ > 0) write_bits(0, 8 - nbuffered_);
}

void BitWriter::write_byte(std::uint8_t byte) {
  CBDE_EXPECT(aligned());
  out_.push_back(byte);
}

std::uint32_t BitReader::read_bits(int nbits) {
  CBDE_EXPECT(nbits >= 0 && nbits <= 24);
  while (nbuffered_ < nbits) {
    if (pos_ >= in_.size()) {
      throw std::invalid_argument("BitReader: read past end of input");
    }
    buffer_ = (buffer_ << 8) | in_[pos_++];
    nbuffered_ += 8;
  }
  nbuffered_ -= nbits;
  const std::uint32_t value = (buffer_ >> nbuffered_) & ((nbits == 32 ? 0 : (1u << nbits)) - 1);
  buffer_ &= (1u << nbuffered_) - 1;
  return value;
}

void BitReader::align_to_byte() {
  buffer_ = 0;
  nbuffered_ = 0;
}

std::uint8_t BitReader::read_byte() {
  CBDE_EXPECT(nbuffered_ == 0);
  if (pos_ >= in_.size()) {
    throw std::invalid_argument("BitReader: read past end of input");
  }
  return in_[pos_++];
}

}  // namespace cbde::compress
