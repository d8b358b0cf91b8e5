#include "compress/huffman.hpp"

#include <algorithm>
#include <numeric>
#include <queue>
#include <stdexcept>

#include "util/contracts.hpp"

namespace cbde::compress {
namespace {

struct Node {
  std::uint64_t freq;
  int left;    // index into node pool, -1 for leaf
  int right;   // index into node pool, -1 for leaf
  int symbol;  // valid for leaves
};

void assign_depths(const std::vector<Node>& pool, int idx, int depth,
                   std::vector<std::uint8_t>& lengths) {
  const Node& n = pool[static_cast<std::size_t>(idx)];
  if (n.left < 0) {
    lengths[static_cast<std::size_t>(n.symbol)] =
        static_cast<std::uint8_t>(std::max(depth, 1));
    return;
  }
  assign_depths(pool, n.left, depth + 1, lengths);
  assign_depths(pool, n.right, depth + 1, lengths);
}

/// Clamp lengths to kMaxCodeLen and repair the Kraft inequality so a valid
/// prefix code still exists (the zlib "bit length overflow" strategy).
void limit_lengths(std::vector<std::uint8_t>& lengths) {
  std::int64_t kraft = 0;  // sum over symbols of 2^(kMaxCodeLen - len)
  constexpr std::int64_t kOne = std::int64_t{1} << kMaxCodeLen;
  for (auto& len : lengths) {
    if (len == 0) continue;
    if (len > kMaxCodeLen) len = kMaxCodeLen;
    kraft += kOne >> len;
  }
  if (kraft <= kOne) return;
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

std::vector<std::uint8_t> build_code_lengths(std::span<const std::uint64_t> freqs) {
  std::vector<std::uint8_t> lengths(freqs.size(), 0);

  std::vector<Node> pool;
  pool.reserve(freqs.size() * 2);
  using Entry = std::pair<std::uint64_t, int>;  // (freq, pool index)
  // The heap never outgrows its seeded storage: n leaves go in, and every
  // merge pops two entries before pushing one.
  std::vector<Entry> heap_storage;
  heap_storage.reserve(freqs.size());
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap(
      std::greater<>{}, std::move(heap_storage));
  for (std::size_t s = 0; s < freqs.size(); ++s) {
    if (freqs[s] == 0) continue;
    pool.push_back({freqs[s], -1, -1, static_cast<int>(s)});
    heap.emplace(freqs[s], static_cast<int>(pool.size() - 1));
  }
  if (heap.empty()) return lengths;
  if (heap.size() == 1) {
    lengths[static_cast<std::size_t>(pool[0].symbol)] = 1;
    return lengths;
  }
  while (heap.size() > 1) {
    const auto [fa, a] = heap.top();
    heap.pop();
    const auto [fb, b] = heap.top();
    heap.pop();
    pool.push_back({fa + fb, a, b, -1});
    heap.emplace(fa + fb, static_cast<int>(pool.size() - 1));
  }
  assign_depths(pool, heap.top().second, 0, lengths);
  limit_lengths(lengths);
  return lengths;
}

HuffmanEncoder::HuffmanEncoder(const std::vector<std::uint8_t>& lengths)
    : lengths_(lengths), codes_(lengths.size(), 0) {
  // Canonical assignment: count codes per length, compute first code per
  // length, then hand out codes in symbol order.
  std::uint32_t count[kMaxCodeLen + 1] = {};
  for (auto len : lengths_) {
    CBDE_EXPECT(len <= kMaxCodeLen);
    if (len) ++count[len];
  }
  std::uint32_t next[kMaxCodeLen + 1] = {};
  std::uint32_t code = 0;
  for (int len = 1; len <= kMaxCodeLen; ++len) {
    code = (code + count[len - 1]) << 1;
    next[len] = code;
  }
  for (std::size_t s = 0; s < lengths_.size(); ++s) {
    if (lengths_[s]) codes_[s] = next[lengths_[s]]++;
  }
}

void HuffmanEncoder::encode(BitWriter& w, std::size_t symbol) const {
  CBDE_EXPECT(symbol < lengths_.size() && lengths_[symbol] > 0);
  w.write_bits(codes_[symbol], lengths_[symbol]);
}

HuffmanDecoder::HuffmanDecoder(const std::vector<std::uint8_t>& lengths) {
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
  symbols_.resize(index);
  std::uint32_t next[kMaxCodeLen + 1];
  std::copy(std::begin(first_index_), std::end(first_index_), next);
  for (std::size_t s = 0; s < lengths.size(); ++s) {
    if (lengths[s]) symbols_[next[lengths[s]]++] = static_cast<std::uint32_t>(s);
  }
}

std::size_t HuffmanDecoder::decode(BitReader& r) const {
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
