// LZ77 match finding with hash chains (the DEFLATE approach).
//
// Produces a token stream of literals and (length, distance) matches over a
// sliding window; the block compressor entropy-codes the tokens.
#pragma once

#include <cstdint>
#include <vector>

#include "util/bytes.hpp"

namespace cbde::compress {

inline constexpr std::size_t kWindowSize = 32 * 1024;
inline constexpr std::size_t kMinMatch = 3;
inline constexpr std::size_t kMaxMatch = 258;

struct Token {
  // length == 0 means a literal; otherwise a back-reference.
  std::uint16_t length = 0;
  std::uint16_t distance = 0;  // 1..kWindowSize
  std::uint8_t literal = 0;
};

/// Tokenize `input` into `tokens` (cleared first; its capacity is reused).
/// Deterministic; allocates nothing once `tokens` and this thread's
/// hash-chain tables have grown to the input.
void lz77_tokenize(util::BytesView input, std::vector<Token>& tokens);

/// Reconstruct the original bytes from a token stream (used by tests; the
/// decompressor inlines the same logic while decoding).
util::Bytes lz77_reconstruct(const std::vector<Token>& tokens);

}  // namespace cbde::compress
