#include "compress/lz77.hpp"

#include <algorithm>
#include <cstdint>

#include "util/contracts.hpp"
#include "util/match.hpp"

namespace cbde::compress {
namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
/// Max hash-chain positions probed per match attempt (DEFLATE levels run
/// 8..4096). Fixed: CBZ1 output depends on it.
constexpr std::size_t kMaxChain = 128;
/// Stop probing once a match of at least this length is found.
constexpr std::size_t kGoodEnough = 64;

inline std::uint32_t hash3(const std::uint8_t* p) {
  // Multiplicative hash of 3 bytes.
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Reusable per-thread hash-chain tables: allocated once per thread, never
/// zeroed per call. head[h] holds base + pos + 1 for the latest position
/// with hash h; values at or below `base` were stored by earlier calls and
/// read as empty, so a call starts by moving `base` past everything stored
/// so far. prev[i % window] holds the distance from position i back to the
/// previous position with the same hash, or 0 when there is none within the
/// window (16 bits suffice, which keeps the chain walk in L1 for typical
/// deltas).
struct ChainScratch {
  std::vector<std::uint32_t> head;
  std::vector<std::uint16_t> prev;
  std::uint32_t end = 0;  // largest value stored in head so far
};

ChainScratch& chain_scratch() {
  thread_local ChainScratch scratch;
  return scratch;
}

}  // namespace

void lz77_tokenize(util::BytesView input, std::vector<Token>& tokens) {
  tokens.clear();
  const std::size_t n = input.size();
  if (n == 0) return;
  tokens.reserve(n);

  ChainScratch& scratch = chain_scratch();
  if (scratch.head.empty()) {
    scratch.head.assign(kHashSize, 0);
    scratch.prev.assign(kWindowSize, 0);
  }
  if (n >= UINT32_MAX - scratch.end) {  // head values would wrap: start over
    std::fill(scratch.head.begin(), scratch.head.end(), 0u);
    scratch.end = 0;
  }
  const std::uint32_t base = scratch.end;
  scratch.end = base + static_cast<std::uint32_t>(n);
  std::uint32_t* const head = scratch.head.data();
  std::uint16_t* const prev = scratch.prev.data();
  // Distance from `pos` back to the latest earlier position with hash `h`,
  // or 0 if there is none within the window.
  const auto nearest = [&](std::uint32_t h, std::size_t pos) -> std::size_t {
    const std::uint32_t v = head[h];
    if (v <= base) return 0;
    const std::size_t dist = pos + 1 + base - v;
    return dist > kWindowSize ? 0 : dist;
  };
  const auto insert = [&](std::uint32_t h, std::size_t pos, std::size_t dist) {
    prev[pos % kWindowSize] = static_cast<std::uint16_t>(dist);
    head[h] = base + static_cast<std::uint32_t>(pos + 1);
  };

  const std::uint8_t* data = input.data();
  std::size_t pos = 0;
  while (pos < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (pos + kMinMatch <= n) {
      const std::uint32_t h = hash3(data + pos);
      const std::size_t first = nearest(h, pos);
      std::size_t chain = kMaxChain;
      const std::size_t limit = std::min(kMaxMatch, n - pos);
      for (std::size_t dist = first; dist != 0 && chain-- > 0;) {
        const std::size_t cpos = pos - dist;
        // zlib's scan-end test: a candidate that differs at offset best_len
        // cannot beat the current match, so skipping it changes no token.
        if (data[cpos + best_len] == data[pos + best_len]) {
          const std::size_t len = util::forward_match(data + cpos, data + pos, limit);
          if (len > best_len) {
            best_len = len;
            best_dist = dist;
            if (len >= kGoodEnough || len == limit) break;
          }
        }
        const std::size_t step = prev[cpos % kWindowSize];
        dist = step == 0 || dist + step > kWindowSize ? 0 : dist + step;
      }
      insert(h, pos, first);
    }

    if (best_len >= kMinMatch) {
      tokens.push_back(Token{static_cast<std::uint16_t>(best_len),
                             static_cast<std::uint16_t>(best_dist), 0});
      // Insert hash entries for the skipped positions so later matches can
      // reference into this match.
      const std::size_t end = std::min(pos + best_len, n >= kMinMatch ? n - kMinMatch + 1 : 0);
      for (std::size_t i = pos + 1; i < end; ++i) {
        const std::uint32_t h2 = hash3(data + i);
        insert(h2, i, nearest(h2, i));
      }
      pos += best_len;
    } else {
      tokens.push_back(Token{0, 0, data[pos]});
      ++pos;
    }
  }
}

util::Bytes lz77_reconstruct(const std::vector<Token>& tokens) {
  util::Bytes out;
  std::size_t total = 0;
  for (const Token& t : tokens) total += t.length == 0 ? 1 : t.length;
  out.reserve(total);
  for (const Token& t : tokens) {
    if (t.length == 0) {
      out.push_back(t.literal);
    } else {
      CBDE_EXPECT(t.distance >= 1 && t.distance <= out.size());
      const std::size_t start = out.size() - t.distance;
      for (std::size_t i = 0; i < t.length; ++i) {
        out.push_back(out[start + i]);  // may overlap; byte-by-byte is correct
      }
    }
  }
  return out;
}

}  // namespace cbde::compress
