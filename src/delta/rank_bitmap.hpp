// The storage both match indexes share: a bitmap over a power-of-two key
// space, the count of set keys before each 64-bit word, and an array of
// entries that those counts (ranks) index, all in one allocation of one
// unsigned unit, 16 or 32 bits wide.
//
// An index that keeps one entry per occupied key stores only the occupied
// keys this way: key k's entry sits at rank(k), the number of set keys below
// k. The bitmap and ranks cost 1.25 bits per key with 16-bit units and 1.5
// with 32-bit ones, so a sparsely occupied key space costs little more than
// its entries (the footprint table's 2^16 slots, the estimator's buckets).
// An index picks the narrow unit when its base is small enough that every
// rank and entry fits in 16 bits, which halves the entries of a web page's
// index.
//
// Both scans over such an index, the encoder's match and the estimator's,
// take their popcounts through one dispatch, scan_index, which picks the
// unit and whether the popcnt instruction may be used.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <type_traits>
#include <variant>

#include "util/contracts.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define CBDE_POPCNT_KERNEL 1
#endif

namespace cbde::delta {

/// Set bits in `x`. The portable count is three mask-and-add steps and one
/// multiply: the build names no -march, so std::popcount compiles to a libgcc
/// call. kPopcnt counts with the popcnt instruction instead, and only a
/// caller compiled for it (target("popcnt"), see scan_index) may ask for that.
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

/// One allocation of Units (std::uint16_t or std::uint32_t): the 64-bit
/// bitmap words, one rank per word, then the entries. Every rank and entry
/// must fit in a Unit. Move-only; immutable once its owner has filled the
/// entries.
template <class Unit>
class RankBitmap {
  static_assert(std::is_same_v<Unit, std::uint16_t> || std::is_same_v<Unit, std::uint32_t>);
  /// Units per bitmap word.
  static constexpr std::size_t kWordUnits = sizeof(std::uint64_t) / sizeof(Unit);

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
    data_ = std::make_unique_for_overwrite<Unit[]>((kWordUnits + 1) * num_words + entries_);
    std::memcpy(data_.get(), words, num_words * sizeof(std::uint64_t));
    Unit* const ranks = data_.get() + kWordUnits * num_words;
    std::size_t set = 0;
    for (std::size_t w = 0; w < num_words; ++w) {
      CBDE_ASSERT(set <= std::numeric_limits<Unit>::max());
      ranks[w] = static_cast<Unit>(set);
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
    return std::size_t{data_[kWordUnits * words_ + k / 64]} +
           popcount64<kPopcnt>(word(k / 64) & below);
  }

  /// rank(k) + 1 when `k` is set, else 0: an index into entries whose first
  /// entry stands for every unset key. Branch-free, as whether a key is set
  /// is as random as the key. kPopcnt as for popcount64.
  template <bool kPopcnt = false>
  std::size_t find(std::size_t k) const {
    const std::uint64_t upto = word(k / 64) << (63 - k % 64);  // k's bit on top
    return (std::size_t{data_[kWordUnits * words_ + k / 64]} + popcount64<kPopcnt>(upto)) &
           (std::size_t{0} - (upto >> 63));
  }

  /// Set keys in all.
  std::size_t count() const { return count_; }

  /// The entries after the ranks: count() plus the extra ones.
  Unit* entries() { return data_.get() + (kWordUnits + 1) * words_; }
  const Unit* entries() const { return data_.get() + (kWordUnits + 1) * words_; }

  /// Bytes of the one allocation: words, ranks and entries.
  std::size_t bytes() const { return ((kWordUnits + 1) * words_ + entries_) * sizeof(Unit); }

 private:
  /// Word `w`, stored as Units so the allocation holds one type.
  std::uint64_t word(std::size_t w) const {
    std::uint64_t bits;
    std::memcpy(&bits, data_.get() + kWordUnits * w, sizeof bits);
    return bits;
  }

  std::unique_ptr<Unit[]> data_;
  std::size_t words_ = 0;
  std::size_t entries_ = 0;
  std::size_t count_ = 0;
};

/// An index's storage at the unit its base allows, picked when it is built.
/// Scans visit it once and take the unit as a template parameter.
using AnyRankBitmap = std::variant<RankBitmap<std::uint16_t>, RankBitmap<std::uint32_t>>;

namespace detail {

#ifdef CBDE_POPCNT_KERNEL

/// Whether the host has the popcnt instruction, read once per process from
/// CPUID.
inline bool popcnt_supported() {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt");
  }();
  return supported;
}

/// The one function compiled for popcnt per scan and unit: Scan::run is
/// always inlined into it, and with it every popcount64<true> it reaches.
template <class Scan, class Unit, class... Args>
__attribute__((target("popcnt"))) auto run_popcnt(const RankBitmap<Unit>& index,
                                                  const Args&... args) {
  return Scan::template run<true>(index, args...);
}

#endif  // CBDE_POPCNT_KERNEL

}  // namespace detail

/// Scan::run<kPopcnt>(index, args...) over `index` at its unit: with the
/// popcnt instruction when `popcnt` is set and the host has it, else with
/// the portable count. Every lookup of a scan takes a popcount, and the
/// portable one costs a dozen instructions more per scanned position.
/// Scan::run must be [[gnu::always_inline]], so the instruction is compiled
/// only into run_popcnt, the one caller whose target attribute allows it.
template <class Scan, class... Args>
auto scan_index(const AnyRankBitmap& index, [[maybe_unused]] bool popcnt, const Args&... args) {
  return std::visit(
      [&](const auto& unit_index) {
#ifdef CBDE_POPCNT_KERNEL
        if (popcnt && detail::popcnt_supported()) {
          return detail::run_popcnt<Scan>(unit_index, args...);
        }
#endif
        return Scan::template run<false>(unit_index, args...);
      },
      index);
}

}  // namespace cbde::delta
