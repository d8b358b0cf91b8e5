// The Karp-Rabin correcting matcher behind delta::Encoder.
//
// From Ajtai, Burns, Fagin, Long & Stockmeyer, "Compactly encoding
// unstructured inputs with differential compression" (J. ACM 49(3), 2002):
// the base is fingerprinted into a fixed-size footprint table
// (first-come-wins, collisions dropped) and the target is scanned once with a
// rolling hash, taking the verified seed match at each position and extending
// it forward. When a match also extends backwards into already-encoded
// output, the tail of the emitted instruction list is trimmed or replaced so
// the longer copy wins (the paper's "corrections" applied to encoder commands
// already issued). The look-back is capped, keeping the pass linear. The
// table keeps a fixed 2^16 slots whatever the base size and stores only the
// occupied ones: at most one entry per base window, 2 bytes wide behind a
// 10 KB bitmap and ranks when the base is under 64 KiB, else 4 bytes wide
// behind 12 KB.
//
// Fingerprints are Karp-Rabin over the Mersenne prime 2^61 - 1 with
// multiplier 263. Every table hit is verified byte-for-byte before a COPY is
// emitted, so collisions cost probes, never correctness.
//
// The matcher never references the target itself: its deltas hold only ADDs
// and COPYs of base bytes, the only instructions CBD1 has (delta.hpp).
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "delta/delta.hpp"
#include "delta/rank_bitmap.hpp"
#include "util/bytes.hpp"

namespace cbde::delta::rolling {

/// Rolling window (seed length) in bytes.
inline constexpr std::size_t kWindow = 16;

/// Shortest match worth a COPY instruction. Short matches cost nearly as
/// many instruction bytes as they save and shred the ADD runs the downstream
/// gzip pass needs.
inline constexpr std::size_t kMinMatch = 32;

/// Number of slots in the footprint table. Fixed whatever the base size: a
/// table sized by its base would keep other positions, and deltas would
/// change.
inline constexpr std::size_t kFootprintSlots = std::size_t{1} << 16;

/// Retro-correction look-back cap, in bytes. Keeps the backward extension
/// (and the instruction-tail trimming it triggers) amortized-linear.
inline constexpr std::size_t kMaxCorrectionBack = 1024;

/// The first base position of every window fingerprint slot. Immutable once
/// built; safe to share across threads. Build cost is one rolling pass over
/// the base.
///
/// Only the occupied slots are stored, packed in slot order behind a rank
/// bitmap over all kFootprintSlots (rank_bitmap.hpp), after one 0 sentinel
/// entry that every empty slot reads. Entries are base position + 1 in 16
/// bits when the base is under 64 KiB, else in 32. A lookup is a bit test, a
/// popcount and one packed read, in two steps a scan can prefetch between:
/// the index's find() reads the bitmap word and rank, its entries() the
/// packed slot.
class FootprintTable {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Bases shorter than the window yield an empty table (every probe misses).
  explicit FootprintTable(util::BytesView base);

  /// The index, at the unit its base allowed: a scan hands it to
  /// scan_index (rank_bitmap.hpp) and takes the entry width as a template
  /// parameter.
  const AnyRankBitmap& index() const { return index_; }

  /// First base position whose window fingerprint fell into `fp`'s slot, or
  /// npos. The hit shares a slot only: the caller must verify the window
  /// bytes, which also rejects a different fingerprint in the same slot.
  std::size_t probe(std::uint64_t fp) const {
    return std::visit(
        [fp](const auto& index) {
          const std::size_t pos = index.entries()[index.find(key(fp))];
          return pos == 0 ? npos : pos - 1;
        },
        index_);
  }

  /// The slot of fingerprint `fp`: its key in the index.
  static std::size_t key(std::uint64_t fp) {
    return static_cast<std::size_t>(fp) & (kFootprintSlots - 1);
  }

  /// Bytes of the one allocation: the 8 KB bitmap, its ranks (2 or 4 KB) and
  /// 2 or 4 per occupied slot plus the sentinel's.
  std::size_t bytes() const {
    return std::visit([](const auto& index) { return index.bytes(); }, index_);
  }

 private:
  AnyRankBitmap index_;  // the 0 sentinel, then occupied slots
};

/// Encode `target` against `base` (`table` must have been built over
/// `base`). Emits CBD1 wire bytes.
EncodeResult encode_rolling(const FootprintTable& table, util::BytesView base,
                            std::uint32_t base_crc, util::BytesView target);

/// The base chunks encode_rolling()'s COPYs cover, by the same match: entry
/// i is set iff chunk [4i, 4i + 4) lies wholly inside one COPY. Sized
/// ceil(base.size() / 4).
std::vector<bool> coverage_rolling(const FootprintTable& table, util::BytesView base,
                                   util::BytesView target);

namespace detail {

/// encode_rolling() through the portable popcount whatever the host
/// supports, so tests can hold it to the popcnt scan the host dispatches to.
EncodeResult encode_portable(const FootprintTable& table, util::BytesView base,
                             std::uint32_t base_crc, util::BytesView target);

}  // namespace detail

}  // namespace cbde::delta::rolling
