#include "compress/bitio.hpp"

namespace cbde::compress {

void BitWriter::align_to_byte() {
  if (nbuffered_ % 8 != 0) write_bits(0, 8 - nbuffered_ % 8);
  while (nbuffered_ > 0) {
    nbuffered_ -= 8;
    // lint: growth-ok at most three pending bytes, into the caller's sized buffer
    out_.push_back(static_cast<std::uint8_t>(buffer_ >> nbuffered_));
  }
}

void BitWriter::write_byte(std::uint8_t byte) {
  CBDE_EXPECT(aligned());
  write_bits(byte, 8);
  align_to_byte();
}

std::uint8_t BitReader::read_byte() {
  CBDE_EXPECT(remaining_ % 8 == 0);
  return static_cast<std::uint8_t>(read_bits(8));
}

}  // namespace cbde::compress
