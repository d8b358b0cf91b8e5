// Block compressor ("cbz"): LZ77 + canonical Huffman, DEFLATE-shaped.
//
// The paper compresses deltas with gzip and attributes roughly a 2x factor
// of its savings to compression; this module provides that substrate from
// scratch. The container format is our own (magic "CBZ1"), not gzip wire
// format, but the algorithm family and achievable ratios match.
//
// Stream layout:
//   "CBZ1" | uvarint original_size | crc32(original) LE |
//   block*  where block = flags byte (bit0 final, bit1 huffman) followed by
//           either a stored run (uvarint len + raw bytes) or Huffman tables
//           (4-bit code lengths for 286 lit/len + 30 distance symbols) and a
//           token bitstream terminated by the end-of-block symbol.
//
// Cost model. compress() tokenizes each 256 KiB block with lz77 (per-thread
// hash-chain tables), sizes the Huffman encoding from the symbol counts
// and writes it only if it beats the stored form. The tokens live in a
// per-thread buffer that keeps one block's worth of capacity, so a
// steady-state call allocates only its output. decompress() decodes with
// 9-bit primary lookup tables (huffman.hpp) straight into an output buffer
// reserved once from the header and copies each match with one memcpy
// unless it overlaps itself; it allocates only the output.
#pragma once

#include <stdexcept>

#include "util/bytes.hpp"

namespace cbde::compress {

/// Thrown by decompress() on malformed or corrupt input.
class CorruptInput : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Decode-side allocation cap: decompress() rejects headers claiming more
/// than this before reserving memory, so a few framing bytes cannot demand
/// a multi-gigabyte output buffer. Mirrors delta::kMaxDecodeTargetSize.
inline constexpr std::size_t kMaxDecompressSize = std::size_t{1} << 30;  // 1 GiB

/// Compress `input`. Never fails; incompressible data is emitted as stored
/// blocks with a few bytes of framing overhead.
util::Bytes compress(util::BytesView input);

/// Decompress a buffer produced by compress(). Throws CorruptInput on any
/// framing, entropy-coding or checksum error. The output reserves the
/// claimed size only after the claim is checked against what the input
/// could decode to (at most 1,032 bytes per input byte), so a forged header
/// cannot reserve a huge buffer; it grows only as bytes are decoded.
util::Bytes decompress(util::BytesView input);

/// compress(input).size(), from the block plans alone: no stream is
/// written, no crc computed and nothing allocated beyond the block tokens.
std::size_t compressed_size(util::BytesView input);

}  // namespace cbde::compress
