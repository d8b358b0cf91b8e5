#include "delta/rolling.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/match.hpp"
#include "util/varint.hpp"

namespace cbde::delta::rolling {
namespace {

// Karp-Rabin arithmetic over the Mersenne prime 2^61 - 1 (SNIPPETS-standard
// parameters: the modulus makes the reduction two adds, the multiplier 263
// covers the byte alphabet with headroom).
constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;
constexpr std::uint64_t kMultiplier = 263;

constexpr std::uint64_t mod_mul(std::uint64_t a, std::uint64_t b) {
  const unsigned __int128 t = static_cast<unsigned __int128>(a) * b;
  std::uint64_t r = static_cast<std::uint64_t>(t & kPrime) +
                    static_cast<std::uint64_t>(t >> 61);
  if (r >= kPrime) r -= kPrime;
  return r;
}

inline std::uint64_t mod_add(std::uint64_t a, std::uint64_t b) {
  std::uint64_t r = a + b;  // < 2^62, no wrap
  if (r >= kPrime) r -= kPrime;
  return r;
}

/// kMultiplier^(kWindow-1) mod p: the weight of the outgoing byte when rolling.
constexpr std::uint64_t kLead = [] {
  std::uint64_t r = 1;
  for (std::size_t i = 1; i < kWindow; ++i) r = mod_mul(r, kMultiplier);
  return r;
}();

/// kOut[b] = p - (b * kLead mod p), in (0, p]: adding it to a residue
/// removes the outgoing byte's weight with no borrow to test.
constexpr std::array<std::uint64_t, 256> kOut = [] {
  std::array<std::uint64_t, 256> out{};
  for (std::size_t b = 0; b < out.size(); ++b) out[b] = kPrime - mod_mul(b, kLead);
  return out;
}();

std::uint64_t fingerprint(const std::uint8_t* p) {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < kWindow; ++i) h = mod_add(mod_mul(h, kMultiplier), p[i]);
  return h;
}

/// Slide the window one byte: drop `out`, append `in`. Works on a partly
/// reduced residue h < 2p: h + kOut[out] < 3p < 2^63, its product with 263 is
/// below 2^72, and one fold (2^61 = 1 mod p) leaves less than 2^61 + 2^11,
/// so with `in` added the result is again below 2p. The roll chain never
/// waits on a full reduction; canonical() gives the residue the table uses.
inline std::uint64_t roll(std::uint64_t h, std::uint8_t out, std::uint8_t in) {
  const unsigned __int128 t = static_cast<unsigned __int128>(h + kOut[out]) * kMultiplier;
  const auto lo = static_cast<std::uint64_t>(t);
  const auto hi = static_cast<std::uint64_t>(t >> 64);
  return (lo & kPrime) + ((lo >> 61) | (hi << 3)) + in;
}

/// The canonical residue of a partly reduced h < 2p: one masked subtraction.
inline std::uint64_t canonical(std::uint64_t h) {
  return h - (kPrime & (std::uint64_t{0} - static_cast<std::uint64_t>(h >= kPrime)));
}

/// How far fingerprints run ahead of the slot access that uses them (the
/// scan's probe, the build's store): the scan locates each slot's packed
/// entry when its fingerprint is rolled and prefetches it, the build
/// prefetches the flat slot, so it has had 16 positions' time to arrive. A
/// power of two: the ring of pending slots is indexed by position modulo it.
constexpr std::size_t kLookahead = 16;

std::uint64_t load64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// One emitted instruction; together they tile [0, target.size()).
/// `start` is the target offset the instruction produces — explicit (rather
/// than implied by the running sum) because retro-correction trims the list
/// from the back.
struct RollInst {
  bool is_copy = false;
  std::size_t addr = 0;  // base address (copies only)
  std::size_t start = 0;
  std::size_t len = 0;
};

/// The matcher, as a scan policy for scan_index (rank_bitmap.hpp): one
/// rolling scan of the target over a footprint table's index, returning the
/// instruction tiling. Verified matches extend forward, then backwards
/// (bounded), and the already-emitted tail is rewritten to make room. Entry
/// is the index's unit, std::uint16_t or std::uint32_t.
struct MatchScan {
  template <bool kPopcnt, class Entry>
  [[gnu::always_inline]] static std::vector<RollInst> run(const RankBitmap<Entry>& index,
                                                          util::BytesView base,
                                                          util::BytesView target);
};

template <bool kPopcnt, class Entry>
inline std::vector<RollInst> MatchScan::run(const RankBitmap<Entry>& index,
                                            util::BytesView base, util::BytesView target) {
  std::vector<RollInst> insts;
  if (target.size() < kWindow || base.size() < kWindow) {
    if (!target.empty()) insts.push_back(RollInst{false, 0, 0, target.size()});
    return insts;
  }
  insts.reserve(16 + target.size() / (kMinMatch * 4));

  static_assert(kWindow == 16, "the window compare is two 8-byte loads");
  const std::uint8_t* const tdata = target.data();
  const std::uint8_t* const bdata = base.data();
  const std::size_t last = target.size() - kWindow;  // last window start
  const Entry* const entries = index.entries();
  // The packed entry of fp's slot, or the sentinel's. Branch-free.
  const auto locate = [&index](std::uint64_t fp) {
    return static_cast<std::uint32_t>(index.template find<kPopcnt>(FootprintTable::key(fp)));
  };
  std::array<std::uint32_t, kLookahead> ring{};  // located slots of [pos, ahead)
  std::size_t pos = 0;
  std::size_t lit_start = 0;
  std::size_t ahead = 0;   // first position not fingerprinted yet
  std::uint64_t hash = 0;  // fingerprint of ahead - 1, partly reduced
  // Fingerprint the next position, locate its slot's packed entry and start
  // loading it. In the steady state each probe takes one step.
  const auto roll_next = [&] {
    hash = roll(hash, tdata[ahead - 1], tdata[ahead - 1 + kWindow]);
    const std::uint32_t at = locate(canonical(hash));
    ring[ahead % kLookahead] = at;
    __builtin_prefetch(entries + at);
    ++ahead;
  };

  while (pos <= last) {
    if (ahead == pos) {  // the start, or just past a COPY: refill the ring
      hash = fingerprint(tdata + pos);
      ring[pos % kLookahead] = locate(hash);
      ahead = pos + 1;
      while (ahead < std::min(pos + kLookahead, last + 1)) roll_next();
    }
    // An empty slot reads base offset 0 (base.size() >= kWindow) and the
    // hit test masks it out: a probe takes one branch, on a verified seed.
    const std::uint32_t slot = entries[ring[pos % kLookahead]];
    const std::size_t cand = slot - static_cast<std::uint32_t>(slot != 0);
    const std::uint64_t diff = (load64(bdata + cand) ^ load64(tdata + pos)) |
                               (load64(bdata + cand + 8) ^ load64(tdata + pos + 8)) |
                               static_cast<std::uint64_t>(slot == 0);
    std::size_t len = 0;
    if (diff == 0) {
      const std::size_t limit = std::min(target.size() - pos, base.size() - cand);
      len = kWindow + util::forward_match(bdata + cand + kWindow, tdata + pos + kWindow,
                                          limit - kWindow);
    }
    if (len >= kMinMatch) {
      // Retro-correction: a seed found mid-match can reach backwards into
      // bytes already covered by emitted instructions; the longer copy wins
      // and the emitted tail is trimmed to make room.
      std::size_t back = 0;
      const std::size_t max_back = std::min({pos, cand, kMaxCorrectionBack});
      while (back < max_back && base[cand - back - 1] == tdata[pos - back - 1]) ++back;
      const std::size_t cut = pos - back;  // new coverage starts here
      if (cut >= lit_start) {
        if (cut > lit_start) {
          insts.push_back(RollInst{false, 0, lit_start, cut - lit_start});
        }
      } else {
        // The correction ate past the pending literal into emitted
        // instructions: discard the pending literal and trim the tail back
        // to `cut`. Right-trimming is valid for both kinds (a copy keeps
        // its address, a literal its start).
        while (!insts.empty() && insts.back().start >= cut) insts.pop_back();
        if (!insts.empty() && insts.back().start + insts.back().len > cut) {
          insts.back().len = cut - insts.back().start;
        }
      }
      insts.push_back(RollInst{true, cand - back, cut, len + back});
      pos += len;
      lit_start = pos;
      ahead = pos;  // drop the lookahead; re-fingerprint at the new position
      continue;
    }
    ++pos;
    if (ahead <= last) roll_next();
  }
  if (target.size() > lit_start) {
    insts.push_back(RollInst{false, 0, lit_start, target.size() - lit_start});
  }
  return insts;
}

/// The matcher's tiling of `target`, with the popcnt instruction when
/// `popcnt` is set and the host has it.
std::vector<RollInst> match(const FootprintTable& table, util::BytesView base,
                            util::BytesView target, bool popcnt) {
  return scan_index<MatchScan>(table.index(), popcnt, base, target);
}

/// The exact CBD1 size of an instruction tiling.
std::size_t wire_size(const std::vector<RollInst>& insts, util::BytesView base,
                      util::BytesView target) {
  std::size_t bytes = 4 + util::uvarint_size(base.size()) +
                      util::uvarint_size(target.size()) + 8;
  for (const RollInst& inst : insts) {
    if (inst.is_copy) {
      bytes += util::uvarint_size((inst.len << 1) | 1) + util::uvarint_size(inst.addr);
    } else {
      bytes += util::uvarint_size(inst.len << 1) + inst.len;
    }
  }
  return bytes;
}

/// The flat table a build fills before packing it, kept per thread: slot k
/// holds base position + 1 where bit k of `taken` is set, and stale values
/// elsewhere, so a build clears 8 KB of bits instead of 256 KB of slots. The
/// spare slot past the table takes the stores that lose first-come-wins.
struct SlotScratch {
  std::vector<std::uint32_t> slots;
  std::array<std::uint64_t, kFootprintSlots / 64> taken{};
};

SlotScratch& slot_scratch() {
  thread_local SlotScratch scratch;
  return scratch;
}

/// The sentinel, then the taken slots of a built scratch packed in slot
/// order, as Entry (every slot's value must fit in one).
template <class Entry>
RankBitmap<Entry> pack_slots(const SlotScratch& scratch) {
  const std::uint32_t* const slots = scratch.slots.data();
  const std::uint64_t* const taken = scratch.taken.data();
  RankBitmap<Entry> index(taken, scratch.taken.size(), 1);
  Entry* out = index.entries();
  *out++ = 0;
  for (std::size_t w = 0; w < scratch.taken.size(); ++w) {
    for (std::uint64_t bits = taken[w]; bits != 0; bits &= bits - 1) {
      const auto k = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      *out++ = static_cast<Entry>(slots[k]);
    }
  }
  return index;
}

}  // namespace

FootprintTable::FootprintTable(util::BytesView base) {
  // Positions are stored +1 in at most 32 bits; the decode cap already keeps
  // every servable document far below that.
  CBDE_EXPECT(base.size() <= kMaxDecodeTargetSize);
  SlotScratch& scratch = slot_scratch();
  if (scratch.slots.empty()) scratch.slots.resize(kFootprintSlots + 1);
  std::uint32_t* const slots = scratch.slots.data();
  std::uint64_t* const taken = scratch.taken.data();
  scratch.taken.fill(0);
  if (base.size() >= kWindow) {
    // The store of each position trails its fingerprint by kLookahead
    // positions, so its slot, prefetched for writing, has arrived and the
    // stores overlap the roll chain instead of stalling it. First-come-wins,
    // still in position order: earlier base positions keep their slot, so
    // probes are deterministic and biased toward small COPY addresses. A
    // taken slot's store lands in the spare entry past the table: a select,
    // not a branch, as whether a slot is taken is random.
    std::array<std::uint64_t, kLookahead> ring{};
    const auto store = [&](std::size_t p) {
      const std::size_t k = key(ring[p % kLookahead]);
      const std::uint64_t word = taken[k / 64];
      const std::uint64_t bit = std::uint64_t{1} << (k % 64);
      slots[(word & bit) != 0 ? kFootprintSlots : k] = static_cast<std::uint32_t>(p + 1);
      taken[k / 64] = word | bit;
    };
    const std::size_t count = base.size() - kWindow + 1;  // window starts
    std::uint64_t h = fingerprint(base.data());
    for (std::size_t p = 0; p < count; ++p) {
      if (p >= kLookahead) store(p - kLookahead);
      const std::uint64_t fp = canonical(h);
      ring[p % kLookahead] = fp;
      __builtin_prefetch(slots + key(fp), 1);
      if (p + 1 < count) h = roll(h, base[p], base[p + kWindow]);
    }
    for (std::size_t p = count - std::min(count, kLookahead); p < count; ++p) store(p);
  }
  // Under 64 KiB every position + 1 and every rank fits in 16 bits.
  if (base.size() < (std::size_t{1} << 16)) {
    index_ = pack_slots<std::uint16_t>(scratch);
  } else {
    index_ = pack_slots<std::uint32_t>(scratch);
  }
}

namespace {

/// The CBD1 delta of the matcher's tiling of `target`.
EncodeResult write_delta(const std::vector<RollInst>& insts, util::BytesView base,
                         std::uint32_t base_crc, util::BytesView target) {
  EncodeResult result;
  util::Bytes& out = result.delta;
  // The exact size up front: the buffer is allocated once, not grown.
  const std::size_t size = wire_size(insts, base, target);
  out.reserve(size);
  // assign, not append: GCC 12 warns (-Wstringop-overflow) that an insert
  // into the freshly reserved buffer overflows it.
  out.assign({'C', 'B', 'D', '1'});
  util::put_uvarint(out, base.size());
  util::put_uvarint(out, target.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(base_crc >> (8 * i)));
  const std::uint32_t target_crc = util::crc32(target);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(target_crc >> (8 * i)));
  }
  for (const RollInst& inst : insts) {
    if (inst.is_copy) {
      util::put_uvarint(out, (inst.len << 1) | 1);
      util::put_uvarint(out, inst.addr);
      result.copy_bytes += inst.len;
    } else {
      util::put_uvarint(out, inst.len << 1);
      util::append(out, target.subspan(inst.start, inst.len));
      result.add_bytes += inst.len;
    }
  }
  CBDE_ENSURE(result.copy_bytes + result.add_bytes == target.size());
  CBDE_ENSURE(out.size() == size);
  return result;
}

}  // namespace

EncodeResult encode_rolling(const FootprintTable& table, util::BytesView base,
                            std::uint32_t base_crc, util::BytesView target) {
  return write_delta(match(table, base, target, true), base, base_crc, target);
}

std::vector<bool> coverage_rolling(const FootprintTable& table, util::BytesView base,
                                   util::BytesView target) {
  std::vector<bool> used((base.size() + kAnonChunkSize - 1) / kAnonChunkSize, false);
  for (const RollInst& inst : match(table, base, target, true)) {
    if (!inst.is_copy) continue;
    // Mark chunks fully contained in [addr, addr + len). One fill: libstdc++
    // writes a vector<bool> range as whole words, not one bit at a time.
    const std::size_t first = (inst.addr + kAnonChunkSize - 1) / kAnonChunkSize;
    const std::size_t end = std::min((inst.addr + inst.len) / kAnonChunkSize, used.size());
    if (first < end) {
      std::fill(used.begin() + static_cast<std::ptrdiff_t>(first),
                used.begin() + static_cast<std::ptrdiff_t>(end), true);
    }
  }
  return used;
}

namespace detail {

EncodeResult encode_portable(const FootprintTable& table, util::BytesView base,
                             std::uint32_t base_crc, util::BytesView target) {
  return write_delta(match(table, base, target, false), base, base_crc, target);
}

}  // namespace detail

}  // namespace cbde::delta::rolling
