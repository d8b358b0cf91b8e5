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
// already issued). The look-back is capped, keeping the pass linear, and the
// matcher state is O(1) in the input sizes: one table of 2^16 slots.
//
// Fingerprints are Karp-Rabin over the Mersenne prime 2^61 - 1 with
// multiplier 263. Every table hit is verified byte-for-byte before a COPY is
// emitted, so collisions cost probes, never correctness.
//
// The matcher never references the target itself, so its deltas contain only
// ADDs and COPYs addressed below the base size: the decoder's superstring
// (target self-copy) path is reached only by hand-built deltas.
#pragma once

#include <cstdint>
#include <vector>

#include "delta/delta.hpp"
#include "util/bytes.hpp"

namespace cbde::delta::rolling {

/// Rolling window (seed length) in bytes.
inline constexpr std::size_t kWindow = 16;

/// Shortest match worth a COPY instruction. Short matches cost nearly as
/// many instruction bytes as they save and shred the ADD runs the downstream
/// gzip pass needs.
inline constexpr std::size_t kMinMatch = 32;

/// Number of slots in the footprint table. Fixed: the O(1)-space guarantee
/// is exactly that this does not scale with the base.
inline constexpr std::size_t kFootprintSlots = std::size_t{1} << 16;

/// Retro-correction look-back cap, in bytes. Keeps the backward extension
/// (and the instruction-tail trimming it triggers) amortized-linear.
inline constexpr std::size_t kMaxCorrectionBack = 1024;

/// The first base position of every window fingerprint slot. Immutable once
/// built; safe to share across threads. Build cost is one rolling pass over
/// the base.
class FootprintTable {
 public:
  static constexpr std::size_t npos = ~std::size_t{0};

  /// Bases shorter than the window yield an empty table (every probe misses).
  explicit FootprintTable(util::BytesView base);

  /// First base position whose window fingerprint fell into `fp`'s slot, or
  /// npos. The hit shares a slot only: the caller must verify the window
  /// bytes, which also rejects a different fingerprint in the same slot.
  std::size_t probe(std::uint64_t fp) const {
    const std::uint32_t pos = slot(fp);
    return pos == 0 ? npos : static_cast<std::size_t>(pos) - 1;
  }

  /// The raw slot `fp` falls into: that base position + 1, or 0 when empty.
  std::uint32_t slot(std::uint64_t fp) const { return pos_[index(fp)]; }

  /// Starts loading `fp`'s slot into cache ahead of its slot() read.
  void prefetch(std::uint64_t fp) const { __builtin_prefetch(pos_.data() + index(fp)); }

  /// Bytes of the slot array (fixed: kFootprintSlots entries).
  std::size_t bytes() const { return pos_.size() * sizeof(std::uint32_t); }

 private:
  static std::size_t index(std::uint64_t fp) {
    return static_cast<std::size_t>(fp) & (kFootprintSlots - 1);
  }

  std::vector<std::uint32_t> pos_;  // base position + 1; 0 = empty slot
};

/// Encode `target` against `base` (`table` must have been built over
/// `base`). Emits CBD1 wire bytes plus COPY coverage of the base.
EncodeResult encode_rolling(const FootprintTable& table, util::BytesView base,
                            std::uint32_t base_crc, util::BytesView target);

/// Exact size of the delta encode_rolling() would produce, without
/// materializing the wire bytes (the instruction list is still built — the
/// matcher rewrites its own tail, so sizes cannot stream).
std::size_t encode_size_rolling(const FootprintTable& table, util::BytesView base,
                                util::BytesView target);

}  // namespace cbde::delta::rolling
