#include "compress/huffman.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/contracts.hpp"

namespace cbde::compress {
namespace {

/// Clamp lengths to kMaxCodeLen and repair the Kraft inequality so a valid
/// prefix code still exists (the zlib "bit length overflow" strategy).
void limit_lengths(std::span<std::uint8_t> lengths) {
  std::int64_t kraft = 0;  // sum over symbols of 2^(kMaxCodeLen - len)
  constexpr std::int64_t kOne = std::int64_t{1} << kMaxCodeLen;
  for (auto& len : lengths) {
    if (len == 0) continue;
    if (len > kMaxCodeLen) len = kMaxCodeLen;
    kraft += kOne >> len;
  }
  // Over-subscribed: lengthen the shortest deep codes until Kraft holds.
  while (kraft > kOne) {
    // Find a symbol with the largest length < kMaxCodeLen and bump it.
    std::size_t best = lengths.size();
    for (std::size_t i = 0; i < lengths.size(); ++i) {
      if (lengths[i] == 0 || lengths[i] >= kMaxCodeLen) continue;
      if (best == lengths.size() || lengths[i] > lengths[best]) best = i;
    }
    CBDE_ASSERT(best < lengths.size());
    kraft -= kOne >> lengths[best];
    ++lengths[best];
    kraft += kOne >> lengths[best];
  }
}

}  // namespace

void build_code_lengths(std::span<const std::uint64_t> freqs, std::span<std::uint8_t> lengths) {
  CBDE_EXPECT(lengths.size() == freqs.size() && freqs.size() <= kMaxSymbols);
  std::fill(lengths.begin(), lengths.end(), std::uint8_t{0});

  // Node pool: leaves 0..n-1 in symbol order, then merged nodes in creation
  // order. Merging always takes the two smallest (frequency, pool index)
  // pairs, as a min-heap over the pool would; merged frequencies never
  // decrease, so the merged nodes form a second sorted queue beside the
  // sorted leaves, and a leaf wins a frequency tie (its index is smaller).
  std::array<std::uint64_t, 2 * kMaxSymbols> freq{};
  std::array<std::uint16_t, 2 * kMaxSymbols> parent{};
  std::array<std::uint16_t, kMaxSymbols> symbol{};
  std::size_t n = 0;
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    freq[n] = freqs[s];
    symbol[n] = static_cast<std::uint16_t>(s);
    ++n;
  }
  if (n == 0) return;
  if (n == 1) {
    lengths[symbol[0]] = 1;
    return;
  }
  std::array<std::uint16_t, kMaxSymbols> leaves{};
  std::iota(leaves.begin(), leaves.begin() + static_cast<std::ptrdiff_t>(n), std::uint16_t{0});
  std::sort(leaves.begin(), leaves.begin() + static_cast<std::ptrdiff_t>(n),
            [&](std::uint16_t a, std::uint16_t b) {
              return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
            });
  std::size_t next_leaf = 0;
  std::size_t next_merged = n;
  std::size_t pool = n;
  const auto pop = [&]() -> std::size_t {
    if (next_leaf < n &&
        (next_merged == pool || freq[leaves[next_leaf]] <= freq[next_merged])) {
      return leaves[next_leaf++];
    }
    return next_merged++;
  };
  while (pool < 2 * n - 1) {
    const std::size_t a = pop();
    const std::size_t b = pop();
    freq[pool] = freq[a] + freq[b];
    parent[a] = static_cast<std::uint16_t>(pool);
    parent[b] = static_cast<std::uint16_t>(pool);
    ++pool;
  }
  // Depths top-down: every parent sits after its children in the pool, and
  // the root is the last node.
  std::array<std::uint16_t, 2 * kMaxSymbols> depth{};
  depth[pool - 1] = 0;
  for (std::size_t i = pool - 1; i-- > 0;) {
    depth[i] = static_cast<std::uint16_t>(depth[parent[i]] + 1);
  }
  for (std::size_t leaf = 0; leaf < n; ++leaf) {
    lengths[symbol[leaf]] = static_cast<std::uint8_t>(depth[leaf]);
  }
  limit_lengths(lengths);
}

HuffmanEncoder::HuffmanEncoder(std::span<const std::uint8_t> lengths) : size_(lengths.size()) {
  CBDE_EXPECT(lengths.size() <= kMaxSymbols);
  // Canonical assignment: count codes per length, compute first code per
  // length, then hand out codes in symbol order.
  std::uint32_t count[kMaxCodeLen + 1] = {};
  for (std::size_t s = 0; s < size_; ++s) {
    CBDE_EXPECT(lengths[s] <= kMaxCodeLen);
    lengths_[s] = lengths[s];
    if (lengths[s]) ++count[lengths[s]];
  }
  std::uint32_t next[kMaxCodeLen + 1] = {};
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for (std::size_t s = 0; s < size_; ++s) {
    if (lengths_[s]) codes_[s] = static_cast<std::uint16_t>(next[lengths_[s]]++);
  }
}

HuffmanDecoder::HuffmanDecoder(std::span<const std::uint8_t> lengths) {
  if (lengths.size() > kMaxSymbols) throw std::invalid_argument("huffman: alphabet too large");
  for (auto len : lengths) {
    if (len > kMaxCodeLen) throw std::invalid_argument("huffman: code length > 15");
    if (len) ++count_[len];
  }
  std::uint32_t code = 0;
  std::uint32_t index = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + count_[len - 1]) << 1;
    first_code_[len] = code;
    first_index_[len] = index;
    index += count_[len];
  }
  std::uint32_t next[kMaxCodeLen + 1] = {};
  std::copy(std::begin(first_index_), std::end(first_index_), next);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) symbols_[next[lengths[s]]++] = static_cast<std::uint16_t>(s);
  }
  // Longest primary-table codes first, so every entry ends up naming the
  // shortest code its bits start with. Codes past 2^len (over-subscribed
  // lengths) match no input and stay out of the table.
  for (int len = kPrimaryBits; len >= 1; --len) {
    const int spread = kPrimaryBits - len;
    for (std::uint32_t k = 0; k < count_[len]; ++k) {
      const std::uint32_t c = first_code_[len] + k;
      if (c >= (std::uint32_t{1} << len)) break;
      const auto entry =
          static_cast<std::uint16_t>(symbols_[first_index_[len] + k] << 4 | len);
      std::fill_n(primary_.begin() + (c << spread), std::size_t{1} << spread, entry);
    }
  }
}

std::size_t HuffmanDecoder::decode_canonical(BitReader& r) const {
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code << 1) | r.read_bit();
    if (count_[len] != 0 && code < first_code_[len] + count_[len] && code >= first_code_[len]) {
      return symbols_[first_index_[len] + (code - first_code_[len])];
    }
  }
  throw std::invalid_argument("huffman: invalid code in stream");
}

}  // namespace cbde::compress
