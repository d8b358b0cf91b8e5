// Delta encoding as the paper uses it (§II, §III fn.2, §V): one differ in two
// roles.
//
//   Encoder    writes every delta the system sends. It is the Karp-Rabin
//              correcting matcher of Ajtai, Burns, Fagin, Long & Stockmeyer
//              (delta/rolling.hpp): a 16-byte rolling window, copies of at
//              least 32 bytes, bounded backward correction. Its coverage()
//              reports which 4-byte base chunks the same COPYs cover —
//              exactly the commonality signal the anonymization process (§V)
//              counts across documents.
//   Estimator  only estimates closeness, for class grouping (§III) and
//              base-file selection (§IV): the Vdelta-style "light" differ
//              that uses larger byte-chunks (8-byte keys over every 8th base
//              position, 4 chain probes, 16-byte minimum match) and scans the
//              target forward only. It returns a size and writes nothing;
//              within() stops the same scan once it knows whether the size
//              passes a limit, which is all a grouping probe asks.
//
// Each has one fixed parameterization. The base-file of a class changes only
// on rebase/anonymize but is delta'd against on every request, so both own
// their base plus a prebuilt index and serve any number of targets (see
// docs/PERFORMANCE.md for the lifecycle). The one-shot encode() and
// estimate_delta_size() free functions remain for callers without a
// reusable base.
//
// Wire format ("CBD1"):
//   "CBD1" | uvarint base_size | uvarint target_size |
//   crc32(base) LE | crc32(target) LE |
//   instruction*  where instruction = uvarint(len<<1 | is_copy) followed by
//   uvarint base_addr for COPY or `len` raw bytes for ADD.
// A COPY reads base bytes [base_addr, base_addr + len), which must lie inside
// the base: there is no target self-copy.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <variant>
#include <vector>

#include "delta/rank_bitmap.hpp"
#include "util/bytes.hpp"

namespace cbde::delta {

class Estimator;

namespace detail {

/// Estimator::estimate() and within() through the portable popcount whatever
/// the host supports, so tests can hold them to the popcnt scans the host
/// dispatches to.
std::size_t estimate_portable(const Estimator& estimator, util::BytesView target);
bool within_portable(const Estimator& estimator, util::BytesView target, std::size_t limit);

}  // namespace detail

/// Anonymization granularity: the 4-byte chunks of §V.
inline constexpr std::size_t kAnonChunkSize = 4;

/// Decode-side allocation cap. Delta headers carry attacker-controlled
/// base/target sizes; apply() rejects any header claiming more than this
/// *before* reserving memory, so a 20-byte delta cannot demand a 16 GB target
/// buffer. Far above any real document this system serves (documents are web
/// pages).
inline constexpr std::size_t kMaxDecodeTargetSize = std::size_t{1} << 30;  // 1 GiB

/// Thrown by apply() on malformed deltas or a base-file mismatch.
class CorruptDelta : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct EncodeResult {
  util::Bytes delta;
  std::size_t copy_bytes = 0;  ///< target bytes produced by COPY
  std::size_t add_bytes = 0;   ///< target bytes produced by ADD
};

/// The transmit encoder: owns a base-file plus its footprint table, and
/// encodes any number of targets against it. Building the table costs one
/// rolling pass over the base and a pass over the 2^16 slot bits that packs
/// the occupied slots; amortizing that across requests (the base changes
/// only on rebase/anonymize) is the difference between a per-request and a
/// per-rebase cost.
///
/// encode()/coverage() are const and safe to call concurrently.
class Encoder {
 public:
  explicit Encoder(util::Bytes base);
  /// Shared-base construction: the encoder aliases `base` instead of copying
  /// it, so several encoders (and readers holding snapshots) can reference
  /// one buffer. This is how a publication round builds its transmit encoder
  /// from the working estimator's base without duplicating the document.
  explicit Encoder(std::shared_ptr<const util::Bytes> base);
  ~Encoder();
  Encoder(Encoder&&) noexcept;
  Encoder& operator=(Encoder&&) noexcept;
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  const util::Bytes& base() const;
  /// The owning handle for the base bytes. Never null; copying it is a
  /// refcount bump, not a buffer copy.
  const std::shared_ptr<const util::Bytes>& shared_base() const;
  /// Bytes of the footprint table, in one allocation: an 8 KB bitmap over
  /// the 2^16 slots, its ranks, and one entry per occupied slot plus one for
  /// a sentinel. Ranks take 2 KB and entries 2 bytes each when the base is
  /// under 64 KiB, else 4 KB and 4 bytes, so at most 2 or 4 per base byte
  /// beyond the bitmap and ranks. The base itself is not counted.
  std::size_t index_bytes() const;

  /// Compute the delta that transforms the owned base into `target`.
  /// Byte-identical to the one-shot encode() free function.
  EncodeResult encode(util::BytesView target) const;

  /// The base chunks encode(target)'s COPYs cover, without writing the delta
  /// or its target crc: entry i is set iff base chunk [4i, 4i + 4) lies
  /// wholly inside one COPY. Sized ceil(base size / 4). The anonymizer's
  /// commonality signal (§V).
  std::vector<bool> coverage(util::BytesView target) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The light closeness estimator: owns a base-file plus its sparse
/// bucketed index. estimate() is const and safe to call concurrently.
class Estimator {
 public:
  explicit Estimator(util::Bytes base);
  /// Shared-base construction, as for Encoder.
  explicit Estimator(std::shared_ptr<const util::Bytes> base);

  const util::Bytes& base() const { return *base_; }
  /// The owning handle for the base bytes. Never null.
  const std::shared_ptr<const util::Bytes>& shared_base() const { return base_; }

  /// Size in bytes of the CBD1 delta the light differ would write from the
  /// owned base to `target`: the grouping-time closeness estimate.
  std::size_t estimate(util::BytesView target) const;

  /// Exactly estimate(target) <= limit, by the same forward scan stopped at
  /// its verdict: no once the literal bytes owed since the last COPY already
  /// pass `limit`, yes once a COPY leaves the rest sendable as one literal
  /// run within it (docs/PERFORMANCE.md has the bound). The grouping probe.
  bool within(util::BytesView target, std::size_t limit) const;

  /// Bytes of the index, in one allocation: the bucket bitmap and its ranks,
  /// one run offset per non-empty bucket plus one, and one slot index per
  /// kept slot. Ranks, offsets and indexes are 2 bytes each when the base is
  /// under 512 KiB (fewer than 2^16 slots), else 4. The base itself is not
  /// counted.
  std::size_t index_bytes() const {
    return std::visit([](const auto& index) { return index.bytes(); }, index_);
  }

 private:
  friend std::size_t detail::estimate_portable(const Estimator&, util::BytesView);
  friend bool detail::within_portable(const Estimator&, util::BytesView, std::size_t);

  std::shared_ptr<const util::Bytes> base_;
  /// Every 8th base position is a slot. Only the first 4 slots of each
  /// 17-bit chunk hash are kept, the most a probe tries. Buckets are the top
  /// bits of the hash: the smallest power of two >= 4 x slots of them, at
  /// most 2^17 (then bucket_shift_ is 0 and a bucket is one hash). Each
  /// non-empty bucket keeps its slots as one run of slot indexes (base
  /// position / 8), in ascending order: a rank bitmap over the buckets
  /// (rank_bitmap.hpp) whose entries are the run offsets, then the runs, in
  /// 16-bit units under 2^16 slots and 32-bit ones from there. estimate()
  /// skips the slots of other hashes without counting them as probes, so it
  /// tries the candidates a 2^17-bucket index would.
  AnyRankBitmap index_;
  unsigned bucket_shift_ = 0;
};

/// Compute the delta that transforms `base` into `target` (one-shot: the
/// footprint table is built, used once and discarded).
EncodeResult encode(util::BytesView base, util::BytesView target);

/// One-shot Estimator::estimate() (copies the base).
std::size_t estimate_delta_size(util::BytesView base, util::BytesView target);

/// Reconstruct the target from `base` + `delta`. Verifies that `base` is the
/// base-file the delta was computed against (crc) and that the output
/// matches the recorded target checksum. Throws CorruptDelta otherwise.
util::Bytes apply(util::BytesView base, util::BytesView delta);

/// Parsed header of a delta, for inspection without applying it.
struct DeltaInfo {
  std::size_t base_size = 0;
  std::size_t target_size = 0;
  std::uint32_t base_crc = 0;
  std::uint32_t target_crc = 0;
};
DeltaInfo inspect(util::BytesView delta);

}  // namespace cbde::delta
