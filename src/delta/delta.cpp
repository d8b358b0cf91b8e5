#include "delta/delta.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "delta/rolling.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/match.hpp"
#include "util/varint.hpp"

namespace cbde::delta {
namespace {

// The light estimator's fixed parameterization (§III fn.2: "larger
// byte-chunks and only traverses the file in the forward direction").
constexpr std::size_t kLightKey = 8;        ///< match key (hash chunk) width
constexpr std::size_t kLightStep = 8;       ///< index every 8th base position
constexpr std::size_t kLightChain = 4;      ///< candidates probed per position
constexpr std::size_t kLightMinMatch = 16;  ///< shortest match counted as a COPY

constexpr std::size_t kHashBits = 17;
constexpr std::size_t kHashSize = 1u << kHashBits;
/// Buckets per indexed slot, before rounding up to a power of two: a bucket
/// then holds a quarter of a slot on average. At 2, walks met as many
/// other-hash slots as real candidates.
constexpr std::size_t kBucketsPerSlot = 4;

/// The estimator build's scratch, kept per thread. kept[h] counts the slots
/// of hash h kept so far and is all zero between builds; hashes[s] is slot
/// s's hash (later its bucket's rank), or kDropped past its hash's first
/// kLightChain slots; `occupied` is the bucket bitmap.
struct IndexScratch {
  std::vector<std::uint8_t> kept;
  std::vector<std::uint32_t> hashes;
  std::vector<std::uint64_t> occupied;
};
constexpr std::uint32_t kDropped = ~std::uint32_t{0};

IndexScratch& index_scratch() {
  thread_local IndexScratch scratch;
  return scratch;
}

/// The index over a filled scratch (`kept` of its `slots` kept): a counting
/// sort of the kept slots by bucket, each slot's hash replaced by the rank r
/// of its bucket. offsets[r] counts the r-th non-empty bucket's slots, then
/// (summed) ends its run, then starts it once the runs are filled from the
/// back; offsets[count] ends the last run. Filled from the back, a run
/// ascends: earlier base positions are tried first, which biases COPY
/// addresses low (slightly smaller varints). Runs hold slot indexes (base
/// position / kLightStep), so every offset and index fits in an Entry when
/// there are fewer slots than it has values.
template <class Entry>
RankBitmap<Entry> sort_into_runs(IndexScratch& scratch, std::size_t slots, std::size_t kept,
                                 unsigned bucket_shift) {
  std::uint32_t* const hashes = scratch.hashes.data();
  RankBitmap<Entry> index(scratch.occupied.data(), scratch.occupied.size(), 1 + kept);
  Entry* const offsets = index.entries();
  Entry* const runs = offsets + index.count() + 1;
  std::fill(offsets, runs, Entry{0});
  for (std::size_t s = 0; s < slots; ++s) {
    if (hashes[s] == kDropped) continue;
    hashes[s] = static_cast<std::uint32_t>(index.rank(hashes[s] >> bucket_shift));
    ++offsets[hashes[s]];
  }
  for (std::size_t r = 1; r < index.count(); ++r) {
    offsets[r] = static_cast<Entry>(offsets[r] + offsets[r - 1]);
  }
  offsets[index.count()] = static_cast<Entry>(kept);
  for (std::size_t s = slots; s-- > 0;) {
    if (hashes[s] != kDropped) runs[--offsets[hashes[s]]] = static_cast<Entry>(s);
  }
  return index;
}

// Skip acceleration (zstd-style): while no acceptable match is found the
// scan step grows with the miss streak, so incompressible runs are crossed
// in O(n / step) probes instead of probing every byte. The step is capped so
// a long noise prefix cannot make the scanner leap over a matchable tail.
constexpr std::size_t kSkipStreakLog = 6;  // step grows every 64 misses
constexpr std::size_t kMaxSkip = 64;

/// One multiply + shift over the 8-byte key — the hash is only a chain
/// filter, every candidate is verified byte-for-byte.
inline std::uint32_t chunk_hash(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, kLightKey);
  return static_cast<std::uint32_t>((v * 0x9E3779B97F4A7C15ull) >> (64 - kHashBits));
}

std::uint32_t get_u32le(util::BytesView in, std::size_t& pos) {
  if (pos + 4 > in.size()) throw CorruptDelta("delta: truncated header");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
  return v;
}

std::size_t header_size(std::size_t base_size, std::size_t target_size) {
  // Magic + size varints + the two crc32 words.
  return 4 + util::uvarint_size(base_size) + util::uvarint_size(target_size) + 8;
}

}  // namespace

Estimator::Estimator(util::Bytes base)
    : Estimator(std::make_shared<const util::Bytes>(std::move(base))) {}

Estimator::Estimator(std::shared_ptr<const util::Bytes> base) : base_(std::move(base)) {
  CBDE_EXPECT(base_ != nullptr);
  const util::BytesView bytes = util::as_view(*base_);
  const std::size_t slots =
      bytes.size() < kLightKey ? 0 : (bytes.size() - kLightKey) / kLightStep + 1;
  const std::size_t buckets = std::min(std::bit_ceil(kBucketsPerSlot * slots), kHashSize);
  bucket_shift_ = static_cast<unsigned>(kHashBits - std::countr_zero(buckets));
  IndexScratch& scratch = index_scratch();
  if (scratch.kept.empty()) scratch.kept.resize(kHashSize);
  if (scratch.hashes.size() < slots) scratch.hashes.resize(slots);
  scratch.occupied.assign((buckets + 63) / 64, 0);
  std::uint32_t* const hashes = scratch.hashes.data();
  // A probe tries at most the first kLightChain slots of its hash, so the
  // later ones are dropped: a walk stays short even when one 8-byte chunk
  // repeats through the whole base.
  std::size_t kept = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const std::uint32_t hash = chunk_hash(bytes.data() + s * kLightStep);
    if (scratch.kept[hash] == kLightChain) {
      hashes[s] = kDropped;
      continue;
    }
    ++scratch.kept[hash];
    hashes[s] = hash;
    ++kept;
    const std::size_t bucket = hash >> bucket_shift_;
    scratch.occupied[bucket / 64] |= std::uint64_t{1} << (bucket % 64);
  }
  for (std::size_t s = 0; s < slots; ++s) {
    if (hashes[s] != kDropped) scratch.kept[hashes[s]] = 0;
  }
  // Under 2^16 slots (bases under 512 KiB) every offset, slot index and
  // rank fits in 16 bits.
  if (slots < (std::size_t{1} << 16)) {
    index_ = sort_into_runs<std::uint16_t>(scratch, slots, kept, bucket_shift_);
  } else {
    index_ = sort_into_runs<std::uint32_t>(scratch, slots, kept, bucket_shift_);
  }
}

namespace {

/// Estimator::estimate()'s scan, as a scan policy for scan_index
/// (rank_bitmap.hpp), over an index of Entry-wide offsets and slot indexes.
/// With kBounded it is within()'s scan: it stops at its verdict on `limit`,
/// returning a lower bound of the estimate above `limit` or an upper bound
/// within it, so its result falls on the same side of `limit` as the
/// estimate. estimate() compiles without those checks.
template <bool kBounded>
struct LightScan {
  template <bool kPopcnt, class Entry>
  [[gnu::always_inline]] static std::size_t run(const RankBitmap<Entry>& index,
                                                util::BytesView base, unsigned bucket_shift,
                                                util::BytesView target, std::size_t limit);
};

template <bool kBounded>
template <bool kPopcnt, class Entry>
inline std::size_t LightScan<kBounded>::run(const RankBitmap<Entry>& index,
                                            util::BytesView base, unsigned bucket_shift,
                                            util::BytesView target, std::size_t limit) {
  // One forward scan taking the longest of up to kLightChain candidates at
  // each position, counting the bytes each instruction would take.
  const Entry* const offsets = index.entries();
  const Entry* const runs = offsets + index.count() + 1;
  std::size_t bytes = header_size(base.size(), target.size());
  std::size_t lit_start = 0;  // start of the uncounted literal run
  const std::uint8_t* const tdata = target.data();
  std::size_t pos = 0;
  std::size_t miss_streak = 0;
  while (pos + kLightKey <= target.size()) {
    std::size_t best_pos = 0;
    std::size_t best_len = 0;
    const std::size_t fwd_limit = target.size() - pos;
    const std::uint32_t hash = chunk_hash(tdata + pos);
    const std::size_t bucket = hash >> bucket_shift;
    const Entry* run = runs;
    const Entry* run_end = runs;
    if (index.test(bucket)) {
      const std::size_t r = index.template rank<kPopcnt>(bucket);
      run += offsets[r];
      run_end += offsets[r + 1];
    }
    for (std::size_t probes = 0; run != run_end && probes < kLightChain; ++run) {
      const std::size_t bpos = std::size_t{*run} * kLightStep;
      // The run also holds every other hash sharing the bucket. Those slots
      // are skipped without counting as probes, so the candidates tried are
      // exactly those of a full 2^17-bucket index.
      if (chunk_hash(base.data() + bpos) != hash) continue;
      ++probes;
      const std::size_t max_len = std::min(fwd_limit, base.size() - bpos);
      if (max_len <= best_len || max_len < kLightKey) continue;
      // A candidate can only beat the incumbent if it also matches at the
      // incumbent's length — one byte-compare rejects most of the chain.
      if (best_len != 0 && base[bpos + best_len] != tdata[pos + best_len]) continue;
      const std::size_t len = util::forward_match(base.data() + bpos, tdata + pos, max_len);
      if (len >= kLightKey && len > best_len) {
        best_pos = bpos;
        best_len = len;
        if (len == fwd_limit) break;  // cannot do better
      }
    }
    if (best_len < kLightMinMatch) {
      pos += std::min<std::size_t>(1 + (miss_streak++ >> kSkipStreakLog), kMaxSkip);
      if constexpr (kBounded) {
        // Every byte since the last COPY goes out in a literal at least.
        const std::size_t owed = bytes + std::min(pos, target.size()) - lit_start;
        if (owed > limit) return owed;
      }
      continue;
    }
    miss_streak = 0;
    if (pos > lit_start) {
      bytes += util::uvarint_size((pos - lit_start) << 1) + (pos - lit_start);
    }
    bytes += util::uvarint_size((best_len << 1) | 1) + util::uvarint_size(best_pos);
    pos += best_len;
    lit_start = pos;
    if constexpr (kBounded) {
      // The rest sent as one literal run: no estimate is larger, as each
      // later COPY replaces at least kLightMinMatch literal bytes by fewer
      // varint bytes (see light_scan).
      const std::size_t rest = target.size() - pos;
      const std::size_t most = bytes + util::uvarint_size(rest << 1) + rest;
      if (most <= limit) return most;
    }
  }
  if (target.size() > lit_start) {
    bytes += util::uvarint_size((target.size() - lit_start) << 1) +
             (target.size() - lit_start);
  }
  return bytes;
}

/// The scan over either entry width, with the popcnt instruction when
/// `popcnt` is set and the host has it. The bounded scan's verdicts are
/// exact while each COPY replaces at least 16 literal bytes by at most 15
/// bytes of varints (its length and address and the next literal's length),
/// so while no size or address needs more than 5 varint bytes; larger inputs
/// take the full scan.
template <bool kBounded>
std::size_t light_scan(util::BytesView base, const AnyRankBitmap& index,
                       unsigned bucket_shift, util::BytesView target, std::size_t limit,
                       bool popcnt) {
  if constexpr (kBounded) {
    if (base.size() > kMaxDecodeTargetSize || target.size() > kMaxDecodeTargetSize) {
      return light_scan<false>(base, index, bucket_shift, target, limit, popcnt);
    }
  }
  return scan_index<LightScan<kBounded>>(index, popcnt, base, bucket_shift, target, limit);
}

}  // namespace

std::size_t Estimator::estimate(util::BytesView target) const {
  return light_scan<false>(util::as_view(*base_), index_, bucket_shift_, target, 0, true);
}

bool Estimator::within(util::BytesView target, std::size_t limit) const {
  return light_scan<true>(util::as_view(*base_), index_, bucket_shift_, target, limit, true) <=
         limit;
}

namespace detail {

std::size_t estimate_portable(const Estimator& estimator, util::BytesView target) {
  return light_scan<false>(util::as_view(*estimator.base_), estimator.index_,
                           estimator.bucket_shift_, target, 0, false);
}

bool within_portable(const Estimator& estimator, util::BytesView target, std::size_t limit) {
  return light_scan<true>(util::as_view(*estimator.base_), estimator.index_,
                          estimator.bucket_shift_, target, limit, false) <= limit;
}

}  // namespace detail

std::size_t estimate_delta_size(util::BytesView base, util::BytesView target) {
  return Estimator(util::Bytes(base.begin(), base.end())).estimate(target);
}

struct Encoder::Impl {
  // Shared, immutable base: encoders built from the same publication round
  // alias one buffer (refcount bump) instead of each owning a copy.
  std::shared_ptr<const util::Bytes> base_bytes;
  std::uint32_t crc;
  rolling::FootprintTable footprints;

  explicit Impl(std::shared_ptr<const util::Bytes> base)
      : base_bytes(std::move(base)),
        crc(util::crc32(util::as_view(*base_bytes))),
        footprints(util::as_view(*base_bytes)) {}
};

Encoder::Encoder(util::Bytes base)
    : Encoder(std::make_shared<const util::Bytes>(std::move(base))) {}

Encoder::Encoder(std::shared_ptr<const util::Bytes> base) {
  CBDE_EXPECT(base != nullptr);
  impl_ = std::make_unique<Impl>(std::move(base));
}

Encoder::~Encoder() = default;
Encoder::Encoder(Encoder&&) noexcept = default;
Encoder& Encoder::operator=(Encoder&&) noexcept = default;

const util::Bytes& Encoder::base() const { return *impl_->base_bytes; }
const std::shared_ptr<const util::Bytes>& Encoder::shared_base() const {
  return impl_->base_bytes;
}
std::size_t Encoder::index_bytes() const { return impl_->footprints.bytes(); }

EncodeResult Encoder::encode(util::BytesView target) const {
  return rolling::encode_rolling(impl_->footprints, util::as_view(*impl_->base_bytes),
                                 impl_->crc, target);
}

std::vector<bool> Encoder::coverage(util::BytesView target) const {
  return rolling::coverage_rolling(impl_->footprints, util::as_view(*impl_->base_bytes),
                                   target);
}

EncodeResult encode(util::BytesView base, util::BytesView target) {
  const rolling::FootprintTable table(base);
  return rolling::encode_rolling(table, base, util::crc32(base), target);
}

namespace {

DeltaInfo parse_header(util::BytesView delta, std::size_t& pos) {
  if (delta.size() < 4 || util::as_string_view(delta.subspan(0, 4)) != "CBD1") {
    throw CorruptDelta("delta: bad magic");
  }
  pos = 4;
  const auto base_size = util::get_uvarint(delta, pos);
  const auto target_size = util::get_uvarint(delta, pos);
  if (!base_size || !target_size) throw CorruptDelta("delta: bad size varint");
  if (*base_size > kMaxDecodeTargetSize || *target_size > kMaxDecodeTargetSize) {
    throw CorruptDelta("delta: claimed size exceeds decode cap");
  }
  DeltaInfo info;
  info.base_size = static_cast<std::size_t>(*base_size);
  info.target_size = static_cast<std::size_t>(*target_size);
  info.base_crc = get_u32le(delta, pos);
  info.target_crc = get_u32le(delta, pos);
  return info;
}

}  // namespace

DeltaInfo inspect(util::BytesView delta) {
  std::size_t pos = 0;
  return parse_header(delta, pos);
}

util::Bytes apply(util::BytesView base, util::BytesView delta) {
  // The base comes from the trusted side (our own store); only the delta is
  // untrusted. A base above the decode cap can never match a valid header.
  CBDE_EXPECT(base.size() <= kMaxDecodeTargetSize);
  std::size_t pos = 0;
  const DeltaInfo info = parse_header(delta, pos);
  if (info.base_size != base.size() || info.base_crc != util::crc32(base)) {
    throw CorruptDelta("delta: base-file mismatch");
  }
  util::Bytes out;
  out.reserve(info.target_size);
  while (pos < delta.size()) {
    const auto tag = util::get_uvarint(delta, pos);
    if (!tag) throw CorruptDelta("delta: bad instruction tag");
    const auto len = static_cast<std::size_t>(*tag >> 1);
    if (out.size() + len > info.target_size) {
      throw CorruptDelta("delta: output exceeds target size");
    }
    if ((*tag & 1) != 0) {  // COPY of base bytes [addr, addr + len)
      const auto addr = util::get_uvarint(delta, pos);
      if (!addr) throw CorruptDelta("delta: bad copy address");
      // Subtraction form: addr + len would wrap for an address near 2^64.
      if (*addr > base.size() || len > base.size() - *addr) {
        throw CorruptDelta("delta: copy out of range");
      }
      util::append(out, base.subspan(static_cast<std::size_t>(*addr), len));
    } else {  // ADD
      if (pos + len > delta.size()) throw CorruptDelta("delta: add out of range");
      util::append(out, delta.subspan(pos, len));
      pos += len;
    }
  }
  if (out.size() != info.target_size) throw CorruptDelta("delta: target size mismatch");
  if (util::crc32(util::as_view(out)) != info.target_crc) {
    throw CorruptDelta("delta: target checksum mismatch");
  }
  CBDE_ENSURE(out.size() == info.target_size);
  return out;
}

}  // namespace cbde::delta
