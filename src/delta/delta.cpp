#include "delta/delta.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "delta/rolling.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"
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
/// Head-table entries per indexed slot, before rounding up to a power of
/// two: a bucket then holds a quarter of a slot on average. At 2, walks met
/// as many other-hash entries as real candidates.
constexpr std::size_t kHeadsPerSlot = 4;

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
  if (bytes.size() < kLightKey) return;
  const std::size_t slots = (bytes.size() - kLightKey) / kLightStep + 1;
  const std::size_t buckets = std::min(std::bit_ceil(kHeadsPerSlot * slots), kHashSize);
  head_shift_ = static_cast<unsigned>(kHashBits - std::countr_zero(buckets));
  head_.assign(buckets, 0);
  prev_.assign(slots, 0);
  // Insert from the end so chains are walked front-to-back; earlier base
  // positions are tried first, which biases COPY addresses low (slightly
  // smaller varints) and is deterministic.
  for (std::size_t s = slots; s-- > 0;) {
    const std::uint32_t hash = chunk_hash(bytes.data() + s * kLightStep);
    std::uint32_t& head = head_[hash >> head_shift_];
    prev_[s] = head;
    head = static_cast<std::uint32_t>(s + 1);
    // A probe tries at most the first kLightChain slots of its hash, so
    // unlink the one that s pushes past them. A bucket's chain then holds at
    // most kLightChain slots per hash sharing it: a walk stays short even
    // when one 8-byte chunk repeats through the whole base.
    std::size_t seen = 0;
    for (std::uint32_t* link = &prev_[s]; *link != 0; link = &prev_[*link - 1]) {
      if (chunk_hash(bytes.data() + (*link - 1) * kLightStep) == hash && ++seen == kLightChain) {
        *link = prev_[*link - 1];
        break;
      }
    }
  }
}

std::size_t Estimator::index_bytes() const {
  return (head_.size() + prev_.size()) * sizeof(std::uint32_t);
}

std::size_t Estimator::estimate(util::BytesView target) const {
  // One forward scan taking the longest of up to kLightChain candidates at
  // each position, counting the bytes each instruction would take.
  const util::BytesView base = util::as_view(*base_);
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
    std::uint32_t slot = head_.empty() ? 0 : head_[hash >> head_shift_];
    for (std::size_t probes = 0; slot != 0 && probes < kLightChain; slot = prev_[slot - 1]) {
      const std::size_t bpos = (slot - 1) * kLightStep;
      // The bucket also chains every other hash sharing its top bits. Those
      // entries are skipped without counting as probes, so the candidates
      // tried are exactly those of a full 2^17-entry table.
      if (chunk_hash(base.data() + bpos) != hash) continue;
      ++probes;
      const std::size_t limit = std::min(fwd_limit, base.size() - bpos);
      if (limit <= best_len || limit < kLightKey) continue;
      // A candidate can only beat the incumbent if it also matches at the
      // incumbent's length — one byte-compare rejects most of the chain.
      if (best_len != 0 && base[bpos + best_len] != tdata[pos + best_len]) continue;
      const std::size_t len = rolling::forward_match(base.data() + bpos, tdata + pos, limit);
      if (len >= kLightKey && len > best_len) {
        best_pos = bpos;
        best_len = len;
        if (len == fwd_limit) break;  // cannot do better
      }
    }
    if (best_len < kLightMinMatch) {
      pos += std::min<std::size_t>(1 + (miss_streak++ >> kSkipStreakLog), kMaxSkip);
      continue;
    }
    miss_streak = 0;
    if (pos > lit_start) {
      bytes += util::uvarint_size((pos - lit_start) << 1) + (pos - lit_start);
    }
    bytes += util::uvarint_size((best_len << 1) | 1) + util::uvarint_size(best_pos);
    pos += best_len;
    lit_start = pos;
  }
  if (target.size() > lit_start) {
    bytes += util::uvarint_size((target.size() - lit_start) << 1) +
             (target.size() - lit_start);
  }
  return bytes;
}

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
std::uint32_t Encoder::base_crc() const { return impl_->crc; }
std::size_t Encoder::index_bytes() const { return impl_->footprints.bytes(); }

EncodeResult Encoder::encode(util::BytesView target) const {
  return rolling::encode_rolling(impl_->footprints, util::as_view(*impl_->base_bytes),
                                 impl_->crc, target);
}

std::size_t Encoder::encode_size(util::BytesView target) const {
  return rolling::encode_size_rolling(impl_->footprints, util::as_view(*impl_->base_bytes),
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
  util::Bytes out;
  apply_into(base, delta, out);
  return out;
}

void apply_into(util::BytesView base, util::BytesView delta, util::Bytes& out) {
  // The base comes from the trusted side (our own store); only the delta is
  // untrusted. A base above the decode cap can never match a valid header.
  CBDE_EXPECT(base.size() <= kMaxDecodeTargetSize);
  std::size_t pos = 0;
  const DeltaInfo info = parse_header(delta, pos);
  if (info.base_size != base.size() || info.base_crc != util::crc32(base)) {
    throw CorruptDelta("delta: base-file mismatch");
  }
  out.clear();
  out.reserve(info.target_size);
  while (pos < delta.size()) {
    const auto tag = util::get_uvarint(delta, pos);
    if (!tag) throw CorruptDelta("delta: bad instruction tag");
    const auto len = static_cast<std::size_t>(*tag >> 1);
    if (out.size() + len > info.target_size) {
      throw CorruptDelta("delta: output exceeds target size");
    }
    if ((*tag & 1) != 0) {  // COPY
      const auto addr = util::get_uvarint(delta, pos);
      if (!addr) throw CorruptDelta("delta: bad copy address");
      if (*addr >= base.size()) {
        // Superstring address: copy from the target's own prefix.
        const auto taddr = static_cast<std::size_t>(*addr) - base.size();
        if (len > 0 && taddr >= out.size()) {
          throw CorruptDelta("delta: self-copy past output frontier");
        }
        // The prefix up to the current frontier is non-overlapping: append
        // it in one bulk copy. Only a genuinely overlapping (run-like) span
        // needs the byte-wise loop. out was reserved to target_size and the
        // bound above guarantees no reallocation, so self-memcpy is safe.
        const std::size_t bulk = std::min(len, out.size() - taddr);
        if (bulk > 0) {
          const std::size_t old_size = out.size();
          out.resize(old_size + bulk);
          std::memcpy(out.data() + old_size, out.data() + taddr, bulk);
        }
        for (std::size_t i = bulk; i < len; ++i) out.push_back(out[taddr + i]);
      } else {
        if (*addr + len > base.size()) throw CorruptDelta("delta: copy out of range");
        util::append(out, base.subspan(static_cast<std::size_t>(*addr), len));
      }
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
}

}  // namespace cbde::delta
