// The storage both match indexes share: a bitmap over a power-of-two key
// space, the count of set keys before each 64-bit word, and a u32 array that
// those counts (ranks) index, all in one allocation.
//
// An index that keeps one entry per occupied key stores only the occupied
// keys this way: key k's entry sits at rank(k), the number of set keys below
// k. The bitmap and ranks cost 1.5 bits per key, so a sparsely occupied key
// space costs little more than its entries (the footprint table's 2^16 slots,
// the estimator's buckets).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define CBDE_POPCNT_KERNEL 1
#endif

namespace cbde::delta {

/// Set bits in `x`. The portable count is three mask-and-add steps and one
/// multiply: the build names no -march, so std::popcount compiles to a libgcc
/// call. kPopcnt counts with the popcnt instruction instead, and only a
/// caller compiled for it (target("popcnt")) may ask for that.
template <bool kPopcnt = false>
[[gnu::always_inline]] inline unsigned popcount64(std::uint64_t x) {
  if constexpr (kPopcnt) {
    return static_cast<unsigned>(__builtin_popcountll(x));
  } else {
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
  }
}

/// Whether the scans may take their popcnt kernels (target("popcnt")),
/// chosen once per process from CPUID.
inline bool popcnt_supported() {
#ifdef CBDE_POPCNT_KERNEL
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt");
  }();
  return supported;
#else
  return false;
#endif
}

/// One allocation of u32s: the bitmap words (two u32s each), one rank per
/// word, then the entries. Move-only; immutable once its owner has filled the
/// entries.
class RankBitmap {
 public:
  /// An empty index: no words, no entries. Only a moved-from or
  /// default-constructed owner holds one.
  RankBitmap() = default;

  /// Copies `num_words` bitmap words (key k is bit k % 64 of words[k / 64])
  /// and computes their ranks. The entries after them, one per set key plus
  /// `extra_entries`, are left for the caller to fill.
  RankBitmap(const std::uint64_t* words, std::size_t num_words, std::size_t extra_entries)
      : words_(num_words) {
    for (std::size_t w = 0; w < num_words; ++w) count_ += popcount64(words[w]);
    entries_ = count_ + extra_entries;
    data_ = std::make_unique_for_overwrite<std::uint32_t[]>(3 * num_words + entries_);
    std::memcpy(data_.get(), words, num_words * sizeof(std::uint64_t));
    std::uint32_t* const ranks = data_.get() + 2 * num_words;
    std::uint32_t set = 0;
    for (std::size_t w = 0; w < num_words; ++w) {
      ranks[w] = set;
      set += popcount64(words[w]);
    }
  }

  /// Whether key `k` is set.
  bool test(std::size_t k) const { return (word(k / 64) >> (k % 64) & 1) != 0; }

  /// The number of set keys below `k`: the entry index of a set key.
  /// kPopcnt as for popcount64.
  template <bool kPopcnt = false>
  std::size_t rank(std::size_t k) const {
    const std::uint64_t below = (std::uint64_t{1} << (k % 64)) - 1;
    return data_[2 * words_ + k / 64] + popcount64<kPopcnt>(word(k / 64) & below);
  }

  /// rank(k) + 1 when `k` is set, else 0: an index into entries whose first
  /// entry stands for every unset key. Branch-free, as whether a key is set
  /// is as random as the key. kPopcnt as for popcount64.
  template <bool kPopcnt = false>
  std::size_t find(std::size_t k) const {
    const std::uint64_t upto = word(k / 64) << (63 - k % 64);  // k's bit on top
    return (data_[2 * words_ + k / 64] + popcount64<kPopcnt>(upto)) &
           (std::size_t{0} - (upto >> 63));
  }

  /// Set keys in all.
  std::size_t count() const { return count_; }

  /// The entries after the ranks: count() plus the extra ones.
  std::uint32_t* entries() { return data_.get() + 3 * words_; }
  const std::uint32_t* entries() const { return data_.get() + 3 * words_; }

  /// Bytes of the one allocation: words, ranks and entries.
  std::size_t bytes() const { return (3 * words_ + entries_) * sizeof(std::uint32_t); }

 private:
  /// Word `w`, stored as two u32s so the allocation holds one type.
  std::uint64_t word(std::size_t w) const {
    std::uint64_t bits;
    std::memcpy(&bits, data_.get() + 2 * w, sizeof bits);
    return bits;
  }

  std::unique_ptr<std::uint32_t[]> data_;
  std::size_t words_ = 0;
  std::size_t entries_ = 0;
  std::size_t count_ = 0;
};

}  // namespace cbde::delta
