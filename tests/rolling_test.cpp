#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <variant>
#include <vector>

#include "delta/delta.hpp"
#include "delta/rank_bitmap.hpp"
#include "delta/rolling.hpp"
#include "trace/document.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/varint.hpp"

namespace cbde::delta {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_below(256));
  return out;
}

std::pair<Bytes, Bytes> template_pair(std::uint64_t seed) {
  const Bytes block_a = random_bytes(seed, 1200);
  const Bytes block_b = random_bytes(seed + 1, 1500);
  Bytes base;
  util::append(base, as_view(block_a));
  util::append(base, as_view(block_b));
  Bytes target;
  util::append(target, random_bytes(seed + 2, 200));
  util::append(target, as_view(block_a));
  util::append(target, random_bytes(seed + 3, 100));
  util::append(target, as_view(block_b));
  return {std::move(base), std::move(target)};
}

/// One CBD1 instruction as it sits on the wire.
struct WireInst {
  bool is_copy = false;
  std::size_t len = 0;
  std::size_t addr = 0;  // COPY source address; unused for ADD
};

/// Reads the instruction layout of a well-formed CBD1 delta, the mirror of
/// delta_test.cpp's assemble_cbd1. It skips the header and ADD payloads and
/// validates nothing: callers check the delta with apply() first.
std::vector<WireInst> read_cbd1(const Bytes& delta) {
  const util::BytesView wire = as_view(delta);
  std::size_t pos = 4;                 // magic
  (void)util::get_uvarint(wire, pos);  // base_size
  (void)util::get_uvarint(wire, pos);  // target_size
  pos += 8;                            // base and target crc32
  std::vector<WireInst> insts;
  while (pos < wire.size()) {
    const std::uint64_t tag = util::get_uvarint(wire, pos).value();
    WireInst inst{(tag & 1) != 0, static_cast<std::size_t>(tag >> 1), 0};
    if (inst.is_copy) {
      inst.addr = static_cast<std::size_t>(util::get_uvarint(wire, pos).value());
    } else {
      pos += inst.len;
    }
    insts.push_back(inst);
  }
  return insts;
}

// ------------------------------------------------------------ round trips

TEST(Rolling, CorrectingRoundTrips) {
  const auto [base, target] = template_pair(8);
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  EXPECT_EQ(result.copy_bytes + result.add_bytes, target.size());
  // The two shared blocks dominate: most target bytes must arrive as COPY.
  EXPECT_GT(result.copy_bytes, target.size() / 2);
  EXPECT_LT(result.delta.size(), target.size() / 2);
}

TEST(Rolling, EmptyAndTinyInputs) {
  const Bytes base = to_bytes("base content beyond one window.");
  const auto r1 = encode(as_view(base), {});
  EXPECT_TRUE(apply(as_view(base), as_view(r1.delta)).empty());

  const Bytes tiny = to_bytes("x");  // below the rolling window
  const auto r2 = encode(as_view(base), as_view(tiny));
  EXPECT_EQ(apply(as_view(base), as_view(r2.delta)), tiny);
  EXPECT_EQ(r2.copy_bytes, 0u);

  const auto r3 = encode({}, as_view(base));  // empty base
  EXPECT_EQ(apply({}, as_view(r3.delta)), base);
  EXPECT_EQ(r3.copy_bytes, 0u);

  // Targets of one to three windows: the target's end cuts the scan's
  // lookahead short, and only a whole-target match of kMinMatch bytes or
  // more becomes a COPY.
  const Bytes wide = random_bytes(16, 4096);
  const Encoder enc(wide);
  for (std::size_t len = rolling::kWindow; len <= 3 * rolling::kWindow; ++len) {
    const util::BytesView field = as_view(wide).subspan(700, len);
    const Bytes target(field.begin(), field.end());
    const auto r = enc.encode(as_view(target));
    EXPECT_EQ(apply(as_view(wide), as_view(r.delta)), target) << len;
    EXPECT_EQ(r.copy_bytes, len >= rolling::kMinMatch ? len : 0u) << len;
  }

  // A COPY that ends 1..kWindow+1 bytes before the target end: the scan
  // resumes with fewer than a window, or just one or two windows, left.
  for (std::size_t tail = 1; tail <= rolling::kWindow + 1; ++tail) {
    Bytes target;
    util::append(target, as_view(wide).subspan(1000, 40));
    Bytes rest = random_bytes(100 + tail, tail);
    rest[0] = static_cast<std::uint8_t>(wide[1040] + 1);  // the copy stops at 40 bytes
    util::append(target, as_view(rest));
    const auto r = enc.encode(as_view(target));
    EXPECT_EQ(apply(as_view(wide), as_view(r.delta)), target) << tail;
    const std::vector<WireInst> insts = read_cbd1(r.delta);
    ASSERT_EQ(insts.size(), 2u) << tail;
    EXPECT_TRUE(insts[0].is_copy);
    EXPECT_EQ(insts[0].addr, 1000u);
    EXPECT_EQ(insts[0].len, 40u);
    EXPECT_FALSE(insts[1].is_copy);
    EXPECT_EQ(insts[1].len, tail);
  }
}

TEST(Rolling, RandomPairsRoundTrip) {
  // Block-shuffled inputs with small blocks: exercises seed misses, matches
  // at every alignment, and the retro-correction paths.
  for (std::uint64_t seed = 40; seed < 60; ++seed) {
    util::Rng rng(seed);
    Bytes base;
    std::vector<Bytes> blocks;
    for (int b = 0; b < 12; ++b) {
      blocks.push_back(random_bytes(seed * 100 + b, 40 + rng.next_below(200)));
      util::append(base, as_view(blocks.back()));
    }
    Bytes target;
    for (int b = 0; b < 16; ++b) {
      if (rng.next_below(3) == 0) {
        util::append(target, as_view(random_bytes(seed * 999 + b, 30 + rng.next_below(60))));
      } else {
        util::append(target, as_view(blocks[rng.next_below(blocks.size())]));
      }
    }
    const auto result = encode(as_view(base), as_view(target));
    EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target) << "seed " << seed;
  }
}

// ------------------------------------------------------- retro-correction

TEST(Rolling, CorrectingExtendsMatchesBackwards) {
  // base = V ++ R ++ V ++ T with V longer than the look-back cap. The
  // target's V is copied from the first V (its windows win the footprint
  // slots); the T seed then extends backwards through the second V, but only
  // by kMaxCorrectionBack bytes, trimming the emitted V copy by as much.
  // (Delta.BackwardExtensionImprovesDelta covers an uncapped extension.)
  const Bytes v = random_bytes(90, 2000);
  const Bytes r = random_bytes(91, 3000);
  const Bytes t = random_bytes(92, 3000);
  Bytes base;
  for (const Bytes* part : {&v, &r, &v, &t}) util::append(base, as_view(*part));
  Bytes target = random_bytes(93, 50);
  util::append(target, as_view(v));
  util::append(target, as_view(t));

  const auto corr = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(corr.delta)), target);
  const std::vector<WireInst> insts = read_cbd1(corr.delta);
  ASSERT_EQ(insts.size(), 3u);
  EXPECT_FALSE(insts[0].is_copy);
  EXPECT_TRUE(insts[1].is_copy);
  EXPECT_EQ(insts[1].addr, 0u);
  EXPECT_EQ(insts[1].len, v.size() - rolling::kMaxCorrectionBack);
  EXPECT_TRUE(insts[2].is_copy);
  EXPECT_EQ(insts[2].addr, base.size() - t.size() - rolling::kMaxCorrectionBack);
  EXPECT_EQ(insts[2].len, t.size() + rolling::kMaxCorrectionBack);
}

TEST(Rolling, CorrectingTrimsAlreadyEmittedInstructions) {
  // base = V ++ R ++ V ++ T. A forward-only scan emits copy(V@0) then
  // copy(T): two instructions. The correcting scan, on reaching T,
  // back-extends through the *second* V occurrence and replaces the
  // already-emitted first copy with one contiguous copy — the
  // retro-correction of emitted commands.
  const Bytes v = random_bytes(80, 64);
  const Bytes r = random_bytes(81, 3000);
  const Bytes t = random_bytes(82, 3000);
  Bytes base;
  util::append(base, as_view(v));
  util::append(base, as_view(r));
  util::append(base, as_view(v));
  util::append(base, as_view(t));
  Bytes target;
  util::append(target, as_view(v));
  util::append(target, as_view(t));

  const auto corr = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(corr.delta)), target);
  const std::vector<WireInst> insts = read_cbd1(corr.delta);
  ASSERT_EQ(insts.size(), 1u);  // one merged copy
  EXPECT_TRUE(insts[0].is_copy);
  EXPECT_EQ(insts[0].addr, v.size() + r.size());
}

// ----------------------------------------------------------- infrastructure

TEST(Rolling, EncodeSizeMatchesEncode) {
  // encode() sums the exact wire size of its instructions and reserves it
  // before writing, so the delta buffer is allocated once: a size too small
  // would regrow the buffer, one too large would leave spare capacity.
  const auto [base, target] = template_pair(9);
  for (const auto& [from, to] : {std::pair{&base, &target}, std::pair{&target, &base}}) {
    const EncodeResult r = Encoder(*from).encode(as_view(*to));
    EXPECT_EQ(r.delta.capacity(), r.delta.size());
  }
  for (const Bytes& small : {Bytes{}, to_bytes("tiny")}) {  // below the window
    const EncodeResult r = Encoder(small).encode(as_view(target));
    EXPECT_EQ(r.delta.capacity(), r.delta.size());
    const EncodeResult back = Encoder(base).encode(as_view(small));
    EXPECT_EQ(back.delta.capacity(), back.delta.size());
  }
}

TEST(Rolling, EncoderClassMatchesFreeFunction) {
  const auto [base, target] = template_pair(10);
  const Encoder enc(base);
  const auto via_class = enc.encode(as_view(target));
  const auto via_free = encode(as_view(base), as_view(target));
  EXPECT_EQ(via_class.delta, via_free.delta);
  EXPECT_EQ(via_class.copy_bytes, via_free.copy_bytes);
}

TEST(Rolling, ChunkUsageReportedForAnonymization) {
  const auto [base, target] = template_pair(12);
  const std::vector<bool> coverage = Encoder(base).coverage(as_view(target));
  std::size_t used = 0;
  for (const bool u : coverage) used += u ? 1 : 0;
  // Both shared blocks were copied, so most base chunks are marked.
  EXPECT_GT(used, coverage.size() / 2);
}

TEST(Rolling, DeltaSizeWithinFactorOfHashChain) {
  // Quality floor against the hash-chain light estimator: the O(1)-state
  // encoder that writes the deltas may not lose to the sparse estimate by
  // more than 3x on a template-heavy workload (it beats it in practice).
  const auto [base, target] = template_pair(13);
  const auto corr = encode(as_view(base), as_view(target));
  EXPECT_LE(corr.delta.size(), 3 * estimate_delta_size(as_view(base), as_view(target)));
}

// ------------------------------------------------- packed table vs flat

/// A window's fingerprint, computed alone: Karp-Rabin over 2^61 - 1 with
/// multiplier 263, as the encoder rolls it.
std::uint64_t window_fingerprint(const std::uint8_t* window) {
  constexpr std::uint64_t kPrime = (std::uint64_t{1} << 61) - 1;
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < rolling::kWindow; ++i) {
    const unsigned __int128 t = static_cast<unsigned __int128>(h) * 263 + window[i];
    h = static_cast<std::uint64_t>(t & kPrime) + static_cast<std::uint64_t>(t >> 61);
    if (h >= kPrime) h -= kPrime;
  }
  return h;
}

/// The footprint table as a flat array of all 2^16 slots, the form the
/// encoder stored before it packed the occupied ones: each slot holds the
/// first base position whose window fingerprint falls in it, + 1, or 0.
std::vector<std::uint32_t> flat_footprints(util::BytesView base) {
  std::vector<std::uint32_t> slots(rolling::kFootprintSlots, 0);
  for (std::size_t p = 0; p + rolling::kWindow <= base.size(); ++p) {
    std::uint32_t& slot =
        slots[window_fingerprint(base.data() + p) & (rolling::kFootprintSlots - 1)];
    if (slot == 0) slot = static_cast<std::uint32_t>(p + 1);
  }
  return slots;
}

/// The width in bytes of a footprint table's entries.
std::size_t entry_width(const rolling::FootprintTable& table) {
  return std::visit([](const auto& index) { return sizeof(*index.entries()); }, table.index());
}

TEST(Rolling, PackedTableReadsAsTheFlatOne) {
  // Bases around the window size, one byte repeated (every window shares one
  // slot), a page, random bases on either side of 64 KiB (the largest with
  // 16-bit entries and the smallest with 32-bit ones), and a random MiB
  // whose million windows leave no slot empty, so the last rank word is
  // full.
  trace::TemplateConfig page_config;
  page_config.skeleton_bytes = 9000;
  Bytes page = trace::DocumentTemplate(3, page_config).generate(1, 2, 0);
  ASSERT_GE(page.size(), 11264u);
  page.resize(11264);
  const std::vector<std::pair<Bytes, std::size_t>> cases{
      // base, occupied slots (0 when not pinned here)
      {Bytes{}, 0},
      {random_bytes(20, 15), 0},
      {random_bytes(21, 16), 1},
      {random_bytes(22, 17), 0},
      {Bytes(4096, 'x'), 1},
      {page, 0},
      {random_bytes(24, (std::size_t{1} << 16) - 1), 0},
      {random_bytes(25, std::size_t{1} << 16), 0},
      {random_bytes(23, std::size_t{1} << 20), rolling::kFootprintSlots},
  };
  for (const auto& [base, pinned] : cases) {
    const rolling::FootprintTable table(as_view(base));
    const std::vector<std::uint32_t> flat = flat_footprints(as_view(base));
    std::size_t occupied = 0;
    std::size_t differing = 0;
    for (std::uint64_t k = 0; k < rolling::kFootprintSlots; ++k) {
      const std::size_t want = flat[k] == 0 ? rolling::FootprintTable::npos : flat[k] - 1;
      differing += table.probe(k) != want ? 1 : 0;
      occupied += flat[k] != 0 ? 1 : 0;
    }
    EXPECT_EQ(differing, 0u) << base.size() << "-byte base";
    if (pinned != 0 || base.size() < rolling::kWindow) {
      EXPECT_EQ(occupied, pinned) << base.size() << "-byte base";
    }
    // The 8 KB bitmap, 1,024 ranks, the sentinel and one entry per slot:
    // ranks and entries are 2 bytes under 64 KiB of base, else 4.
    const std::size_t width = base.size() < (std::size_t{1} << 16) ? 2 : 4;
    EXPECT_EQ(entry_width(table), width) << base.size() << "-byte base";
    EXPECT_EQ(table.bytes(), 8192 + width * (1024 + 1 + occupied))
        << base.size() << "-byte base";
  }
}

template <class Unit>
void expect_ranks_and_find(const std::uint64_t (&words)[4]) {
  const RankBitmap<Unit> index(words, 4, 2);
  std::size_t below = 0;
  for (std::size_t k = 0; k < 256; ++k) {
    const bool set = (words[k / 64] >> (k % 64) & 1) != 0;
    EXPECT_EQ(index.test(k), set) << k;
    EXPECT_EQ(index.rank(k), below) << k;
    EXPECT_EQ(index.find(k), set ? below + 1 : 0) << k;
    below += set ? 1 : 0;
  }
  EXPECT_EQ(index.count(), below);
  // Four 8-byte words, four ranks and the entries, in Units.
  EXPECT_EQ(index.bytes(), 4 * 8 + (4 + below + 2) * sizeof(Unit));
}

TEST(RankBitmap, PortablePopcountRanksAndFind) {
  util::Rng rng(77);
  for (const std::uint64_t x : {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1} << 63,
                                std::uint64_t{0x8000000000000001u}}) {
    EXPECT_EQ(popcount64(x), static_cast<unsigned>(std::popcount(x)));
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.next_u64() & rng.next_u64();
    EXPECT_EQ(popcount64(x), static_cast<unsigned>(std::popcount(x)));
  }
  // Four words: empty, full, sparse, the top bit alone.
  const std::uint64_t words[] = {0, ~std::uint64_t{0}, rng.next_u64() & rng.next_u64(),
                                 std::uint64_t{1} << 63};
  expect_ranks_and_find<std::uint16_t>(words);
  expect_ranks_and_find<std::uint32_t>(words);
}

TEST(Rolling, FootprintTableProbeContract) {
  const Bytes base = random_bytes(14, 4096);
  const rolling::FootprintTable table(as_view(base));
  // Every slot hit names a real base position; the caller verifies bytes.
  for (std::uint64_t fp = 0; fp < 4096; ++fp) {
    const std::size_t pos = table.probe(fp);
    if (pos != rolling::FootprintTable::npos) {
      EXPECT_LE(pos + rolling::kWindow, base.size());
    }
  }
  // A base shorter than the window yields only misses.
  const rolling::FootprintTable empty(as_view(to_bytes("short")));
  EXPECT_EQ(empty.probe(12345), rolling::FootprintTable::npos);
}

// ------------------------------------------------------- pinned large bases
//
// Encoder.PinnedDeltasAndCoverageOverSeededCorpus stops at 6,000-byte bases,
// which never fill the 2^16-slot footprint table. These bases run from 20 to
// 256 KiB, so up to four windows compete for each slot and first-come-wins
// drops the later ones. Targets are template-like: the base's fields in
// order with some dropped, rewritten or inserted. The values were recorded
// from the matcher that probed without a lookahead and rolled with mod_sub.

constexpr std::size_t kLargeTemplatePairs = 12;

std::vector<std::pair<Bytes, Bytes>> large_template_pairs() {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  pairs.reserve(kLargeTemplatePairs);
  util::Rng rng(2025);
  for (std::size_t i = 0; i < kLargeTemplatePairs; ++i) {
    const std::size_t base_len = (20u << 10) + rng.next_below((236u << 10) + 1);
    const std::size_t alphabet = 4 + rng.next_below(23);
    const auto field = [&rng, alphabet](Bytes& out, std::size_t n) {
      for (std::size_t k = 0; k < n; ++k) {
        out.push_back(static_cast<std::uint8_t>('a' + rng.next_below(alphabet)));
      }
    };
    std::vector<Bytes> markup(3 + rng.next_below(6));
    for (Bytes& m : markup) field(m, 6 + rng.next_below(40));
    Bytes base;
    std::vector<std::size_t> bounds{0};
    while (base.size() < base_len) {
      util::append(base, as_view(markup[rng.next_below(markup.size())]));
      field(base, 1 + rng.next_below(300));
      bounds.push_back(base.size());
    }
    Bytes target;
    for (std::size_t f = 0; f + 1 < bounds.size(); ++f) {
      switch (rng.next_below(10)) {
        case 0:  // field dropped
          break;
        case 1:  // field rewritten
          util::append(target, as_view(markup[rng.next_below(markup.size())]));
          field(target, 1 + rng.next_below(300));
          break;
        case 2:  // field inserted before the kept one
          field(target, 1 + rng.next_below(120));
          [[fallthrough]];
        default:
          util::append(target, as_view(base).subspan(bounds[f], bounds[f + 1] - bounds[f]));
          break;
      }
    }
    pairs.emplace_back(std::move(base), std::move(target));
  }
  return pairs;
}

TEST(Rolling, PinnedTablesAndDeltasOverLargeBases) {
  std::vector<std::uint32_t> table_crcs;
  std::uint32_t crc = 0;
  std::uint64_t delta_bytes = 0;
  std::uint64_t size_total = 0;
  for (const auto& [base, target] : large_template_pairs()) {
    const rolling::FootprintTable table(as_view(base));
    Bytes slots;
    slots.reserve(rolling::kFootprintSlots * 4);
    for (std::uint64_t k = 0; k < rolling::kFootprintSlots; ++k) {
      const auto pos = static_cast<std::uint32_t>(table.probe(k));  // npos reads 0xffffffff
      for (int b = 0; b < 4; ++b) slots.push_back(static_cast<std::uint8_t>(pos >> (8 * b)));
    }
    table_crcs.push_back(util::crc32(as_view(slots)));

    const Encoder encoder(base);
    const EncodeResult r = encoder.encode(as_view(target));
    ASSERT_EQ(apply(as_view(base), as_view(r.delta)), target);
    crc = util::crc32(as_view(r.delta), crc);
    delta_bytes += r.delta.size();
    const std::vector<bool> used = encoder.coverage(as_view(target));
    Bytes bits((used.size() + 7) / 8, 0);
    for (std::size_t c = 0; c < used.size(); ++c) {
      if (used[c]) bits[c / 8] |= static_cast<std::uint8_t>(1u << (c % 8));
    }
    crc = util::crc32(as_view(bits), crc);
    size_total += encoder.encode(as_view(target)).delta.size() +
                  encoder.encode(as_view(base)).delta.size();
  }
  const std::vector<std::uint32_t> expected_tables{
      0x7e88734eu, 0xb19d0e4cu, 0x1353e06cu, 0x6a3f281fu, 0xc7d2ff6du, 0xd0210aa3u,
      0x251e9a05u, 0x460a615fu, 0x55d51cd7u, 0x48f61179u, 0x06295cdbu, 0x35032e34u};
  EXPECT_EQ(table_crcs, expected_tables);
  EXPECT_EQ(delta_bytes, 236032u);
  EXPECT_EQ(size_total, 236296u);
  EXPECT_EQ(crc, 0x12e15dd8u);
}

TEST(Rolling, PortableScanMatchesPopcntScan) {
  // The scan is compiled for each entry width, with and without the popcnt
  // instruction, and a host that has it takes that kernel. The portable one
  // must write every delta the same. Besides the large pairs (20 to 256 KiB),
  // one base is cut to each side of 64 KiB, where the entries widen.
  std::vector<std::pair<Bytes, Bytes>> pairs = large_template_pairs();
  const auto wide = std::find_if(pairs.begin(), pairs.end(), [](const auto& pair) {
    return pair.first.size() > (std::size_t{1} << 16);
  });
  ASSERT_NE(wide, pairs.end());
  const auto [wide_base, wide_target] = *wide;
  for (const std::size_t size : {(std::size_t{1} << 16) - 1, std::size_t{1} << 16}) {
    pairs.emplace_back(Bytes(wide_base.begin(), wide_base.begin() + size), wide_target);
  }
  std::size_t narrow_tables = 0;
  std::size_t wide_tables = 0;
  for (const auto& [base, target] : pairs) {
    const rolling::FootprintTable table(as_view(base));
    const std::uint32_t crc = util::crc32(as_view(base));
    (entry_width(table) == 2 ? narrow_tables : wide_tables) += 1;
    for (const Bytes* to : {&target, &base}) {
      EXPECT_EQ(rolling::detail::encode_portable(table, as_view(base), crc, as_view(*to)).delta,
                rolling::encode_rolling(table, as_view(base), crc, as_view(*to)).delta);
    }
  }
  EXPECT_GE(narrow_tables, 2u);
  EXPECT_GE(wide_tables, 2u);
}

TEST(Rolling, WireFormatIsPlainCbd1) {
  const auto [base, target] = template_pair(15);
  const auto result = encode(as_view(base), as_view(target));
  const DeltaInfo info = inspect(as_view(result.delta));
  EXPECT_EQ(info.base_size, base.size());
  EXPECT_EQ(info.target_size, target.size());
  EXPECT_EQ(info.base_crc, util::crc32(as_view(base)));
  EXPECT_EQ(info.target_crc, util::crc32(as_view(target)));
}

// The DeltaIr name dates from when the delta IR's lifter also parsed CBD1;
// the check now reads the wire directly.
TEST(DeltaIr, RollingCodecsLiftToBaseOnlyPrograms) {
  // The matcher never references the target itself: every COPY lies inside
  // the base, the only source apply accepts.
  const auto [base, target] = template_pair(81);
  const auto result = encode(as_view(base), as_view(target));
  ASSERT_EQ(apply(as_view(base), as_view(result.delta)), target);
  std::size_t copies = 0;
  for (const WireInst& inst : read_cbd1(result.delta)) {
    if (!inst.is_copy) continue;
    ++copies;
    EXPECT_LT(inst.addr, base.size());
    EXPECT_LE(inst.addr + inst.len, base.size());
  }
  EXPECT_GT(copies, 0u);
}

}  // namespace
}  // namespace cbde::delta
