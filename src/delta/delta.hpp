// Delta encoding as the paper uses it (§II, §III fn.2, §V): one differ in two
// roles.
//
//   Encoder    writes every delta the system sends. It is the Karp-Rabin
//              correcting matcher of Ajtai, Burns, Fagin, Long & Stockmeyer
//              (delta/rolling.hpp): a 16-byte rolling window, copies of at
//              least 32 bytes, bounded backward correction. It also reports
//              which 4-byte base chunks its COPYs covered — exactly the
//              commonality signal the anonymization process (§V) counts
//              across documents.
//   Estimator  only estimates closeness, for class grouping (§III) and
//              base-file selection (§IV): the Vdelta-style "light" differ
//              that uses larger byte-chunks (8-byte keys over every 8th base
//              position, 4 chain probes, 16-byte minimum match) and scans the
//              target forward only. It returns a size and writes nothing.
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
// A COPY address >= base_size reads the target's own decoded prefix (the
// VCDIFF "superstring" convention). The encoder never emits one, but the
// decoder accepts it.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"

namespace cbde::delta {

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
  /// chunk_used[i] == true iff base chunk [4i, 4i+4) was fully contained in
  /// some COPY instruction. Sized ceil(base_size / 4).
  std::vector<bool> chunk_used;
  std::size_t copy_bytes = 0;  ///< target bytes produced by COPY
  std::size_t add_bytes = 0;   ///< target bytes produced by ADD
};

/// The transmit encoder: owns a base-file plus its footprint table, and
/// encodes any number of targets against it. Building the table costs one
/// rolling pass over the base and a 256 KB table fill; amortizing that across
/// requests (the base changes only on rebase/anonymize) is the difference
/// between a per-request and a per-rebase cost.
///
/// encode()/encode_size() are const and safe to call concurrently.
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
  /// crc32 of the base, computed once at construction.
  std::uint32_t base_crc() const;
  /// Bytes of the footprint table: a fixed 256 KB whatever the base size.
  /// The base itself is not counted.
  std::size_t index_bytes() const;

  /// Compute the delta that transforms the owned base into `target`.
  /// Byte-identical to the one-shot encode() free function.
  EncodeResult encode(util::BytesView target) const;

  /// Size in bytes of the delta encode() would produce, without
  /// materializing the wire bytes. Exactly encode(target).delta.size().
  std::size_t encode_size(util::BytesView target) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The light closeness estimator: owns a base-file plus its sparse
/// hash-chain index. estimate() is const and safe to call concurrently.
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

  /// Bytes of the hash-chain index: the head table takes at most 4 per base
  /// byte and at most 512 KB, the chains 0.5 per base byte. The base itself
  /// is not counted.
  std::size_t index_bytes() const;

 private:
  std::shared_ptr<const util::Bytes> base_;
  /// Hash chains over every 8th base position (one slot each), bucketed by
  /// the top bits of the 17-bit chunk hash: head_[hash >> head_shift_] is
  /// the bucket's first slot + 1 (0 = empty), prev_[slot] the next slot + 1
  /// in the bucket, in ascending position order. Only the first 4 slots of
  /// each hash are linked, the most a probe tries. head_ has the smallest
  /// power of two >= 4 x slots entries, at most 2^17 (then head_shift_ is 0
  /// and a bucket is one hash), and is empty for a base under 8 bytes.
  /// estimate() skips the slots of other hashes without counting them as
  /// probes, so it tries the candidates a 2^17-entry table would.
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> prev_;
  unsigned head_shift_ = 0;
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

/// Zero-copy variant of apply(): decodes into `out`, reusing whatever
/// capacity the caller's buffer already has (a per-worker scratch buffer
/// amortizes the decode allocation across requests). `out` is cleared
/// first; on throw its contents are unspecified. Same validation contract
/// as apply(); fuzzed differentially against it.
void apply_into(util::BytesView base, util::BytesView delta, util::Bytes& out);

/// Parsed header of a delta, for inspection without applying it.
struct DeltaInfo {
  std::size_t base_size = 0;
  std::size_t target_size = 0;
  std::uint32_t base_crc = 0;
  std::uint32_t target_crc = 0;
};
DeltaInfo inspect(util::BytesView delta);

}  // namespace cbde::delta
