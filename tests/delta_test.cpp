#include <gtest/gtest.h>

#include <string>

#include "delta/delta.hpp"
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

// ------------------------------------------------------------ round trips

TEST(Delta, IdenticalFilesGiveTinyDelta) {
  const Bytes doc = to_bytes(std::string(20000, 'q') + "tail content here");
  const auto result = encode(as_view(doc), as_view(doc));
  EXPECT_EQ(apply(as_view(doc), as_view(result.delta)), doc);
  EXPECT_LT(result.delta.size(), 64u);  // header + one COPY
  EXPECT_EQ(result.add_bytes, 0u);
  EXPECT_EQ(result.copy_bytes, doc.size());
}

TEST(Delta, EmptyTargetAndEmptyBase) {
  const Bytes base = to_bytes("some base content");
  const auto r1 = encode(as_view(base), {});
  EXPECT_TRUE(apply(as_view(base), as_view(r1.delta)).empty());

  const Bytes target = to_bytes("fresh content with no base");
  const auto r2 = encode({}, as_view(target));
  EXPECT_EQ(apply({}, as_view(r2.delta)), target);
  EXPECT_EQ(r2.copy_bytes, 0u);  // nothing to copy from
}

TEST(Delta, SmallEditProducesSmallDelta) {
  std::string s(40000, ' ');
  util::Rng rng(1);
  for (auto& c : s) c = static_cast<char>('a' + rng.next_below(26));
  Bytes base = to_bytes(s);
  Bytes target = base;
  // Edit 3 disjoint spots.
  for (std::size_t pos : {100u, 20000u, 39000u}) {
    for (std::size_t i = 0; i < 20; ++i) target[pos + i] = 'Z';
  }
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  EXPECT_LT(result.delta.size(), 300u);
}

TEST(Delta, AdversarialCorporaRoundTrip) {
  const std::vector<std::pair<Bytes, Bytes>> cases = {
      {to_bytes("abcdefgh"), to_bytes("abcdefgh")},
      {to_bytes("aaaaaaaaaaaaaaaa"), to_bytes("aaaabaaaabaaaab")},
      {random_bytes(1, 5000), random_bytes(2, 5000)},            // unrelated
      {random_bytes(3, 5000), random_bytes(3, 5000)},            // identical random
      {to_bytes(""), random_bytes(4, 100)},                      // empty base
      {random_bytes(5, 100), to_bytes("")},                      // empty target
      {to_bytes("short"), random_bytes(6, 50000)},               // tiny base
      {random_bytes(7, 50000), to_bytes("short")},               // tiny target
      {to_bytes(std::string(1000, 'x')), to_bytes(std::string(3000, 'x'))},
  };
  for (const auto& [base, target] : cases) {
    const auto result = encode(as_view(base), as_view(target));
    EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
    EXPECT_EQ(result.copy_bytes + result.add_bytes, target.size());
  }
}

TEST(Delta, RandomizedRoundTripSweep) {
  util::Rng rng(12345);
  for (int trial = 0; trial < 60; ++trial) {
    // Base and target share structure: common prefix pool mutated randomly.
    const std::size_t n = 200 + rng.next_below(8000);
    Bytes base = random_bytes(rng.next_u64(), n);
    Bytes target = base;
    const std::size_t edits = rng.next_below(20);
    for (std::size_t e = 0; e < edits && !target.empty(); ++e) {
      const std::size_t pos = rng.next_below(target.size());
      switch (rng.next_below(3)) {
        case 0: target[pos] ^= 0xFF; break;
        case 1:
          target.insert(target.begin() + static_cast<std::ptrdiff_t>(pos),
                        static_cast<std::uint8_t>(rng.next_below(256)));
          break;
        default: target.erase(target.begin() + static_cast<std::ptrdiff_t>(pos)); break;
      }
    }
    const auto result = encode(as_view(base), as_view(target));
    ASSERT_EQ(apply(as_view(base), as_view(result.delta)), target) << "trial " << trial;
  }
}

// ------------------------------------------------------------ variants

TEST(Delta, BackwardExtensionImprovesDelta) {
  // base = S ++ R ++ S ++ T with S shorter than the minimum match. The
  // footprint table keeps the *first* S for every S window, and those seeds
  // run into R, so the target's S is never seeded on its own. The T seed
  // extends backwards across the second S: the only literal left is the
  // junk prefix, and S + T arrive as one COPY.
  const Bytes s = random_bytes(60, 24);
  const Bytes r = random_bytes(61, 3000);
  const Bytes t = random_bytes(62, 3000);
  Bytes base;
  for (const Bytes* part : {&s, &r, &s, &t}) util::append(base, as_view(*part));
  Bytes target = random_bytes(63, 50);
  util::append(target, as_view(s));
  util::append(target, as_view(t));
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  EXPECT_EQ(result.add_bytes, 50u);
  EXPECT_EQ(result.copy_bytes, s.size() + t.size());
}

TEST(Delta, LightVariantIsCoarserButOrdersSimilarity) {
  // Light deltas may be larger, but they must still rank a near document
  // below a far one — that is all grouping needs.
  const trace::DocumentTemplate tmpl(42, trace::TemplateConfig{});
  const Bytes doc_a = tmpl.generate(1, 100, 0);
  const Bytes doc_b = tmpl.generate(1, 100, 1 * util::kSecond);  // near: same doc
  const trace::DocumentTemplate other(43, trace::TemplateConfig{});
  const Bytes doc_c = other.generate(99, 200, 0);  // far: different template

  const auto near_size = estimate_delta_size(as_view(doc_a), as_view(doc_b));
  const auto far_size = estimate_delta_size(as_view(doc_a), as_view(doc_c));
  EXPECT_LT(near_size * 3, far_size);

  const auto full_near = encode(as_view(doc_a), as_view(doc_b)).delta.size();
  EXPECT_LE(full_near, near_size * 3);  // light is coarser, not wildly off
}

TEST(Delta, CoverageMarksSharedChunksOnly) {
  // Base = A B where only A appears in the target.
  const std::string shared(4096, 's');
  const std::string unique_part = "UNIQ" + std::string(4092, 'u');
  const Bytes base = to_bytes(shared + unique_part);
  const Bytes target = to_bytes("prefix " + shared + " suffix");
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);

  const std::size_t shared_chunks = shared.size() / kAnonChunkSize;
  std::size_t covered_shared = 0;
  for (std::size_t c = 0; c < shared_chunks; ++c) covered_shared += result.chunk_used[c];
  EXPECT_GT(covered_shared, shared_chunks * 9 / 10);

  // Chunks wholly inside the unique half must not be marked.
  for (std::size_t c = shared_chunks + 1; c < result.chunk_used.size() - 1; ++c) {
    EXPECT_FALSE(result.chunk_used[c]) << "chunk " << c;
  }
}

TEST(Delta, CoverageSizeMatchesBase) {
  const Bytes base = random_bytes(11, 1001);  // non-multiple of 4
  const auto result = encode(as_view(base), as_view(base));
  EXPECT_EQ(result.chunk_used.size(), (base.size() + 3) / 4);
}

// ------------------------------------------------------------ base coverage

TEST(Delta, SelfCopiesDoNotPolluteBaseCoverage) {
  // Coverage feeds the anonymizer and must reflect *base* commonality only:
  // a self-repetitive target that shares nothing with the base tail must
  // leave the tail chunks unmarked.
  const Bytes base = to_bytes(std::string(4096, 'b') + "shared-tail-content");
  std::string s(4096, 'b');
  s += "unique ";
  for (int i = 0; i < 100; ++i) s += "selfselfself";
  const Bytes target = to_bytes(s);
  const auto result = encode(as_view(base), as_view(target));
  EXPECT_EQ(apply(as_view(base), as_view(result.delta)), target);
  // The trailing base chunks ("shared-tail-content") never matched.
  bool tail_marked = false;
  for (std::size_t c = 1024; c < result.chunk_used.size(); ++c) {
    tail_marked |= result.chunk_used[c];
  }
  EXPECT_FALSE(tail_marked);
}

TEST(Delta, MaliciousSelfCopyRejected) {
  // Hand-craft a delta whose self-copy references the unwritten frontier.
  const Bytes base = to_bytes("0123456789");
  util::Bytes delta;
  util::append(delta, std::string_view("CBD1"));
  util::put_uvarint(delta, base.size());
  util::put_uvarint(delta, 100);  // claimed target size
  for (int i = 0; i < 8; ++i) delta.push_back(0);  // crcs (wrong, but later)
  util::put_uvarint(delta, (50u << 1) | 1);        // COPY len 50
  util::put_uvarint(delta, base.size() + 5);       // self addr 5 > frontier 0
  EXPECT_THROW(apply(as_view(base), as_view(delta)), CorruptDelta);
}

// ------------------------------------------------------------ validation

TEST(Delta, ApplyRejectsWrongBase) {
  const Bytes base = to_bytes(std::string(5000, 'a') + "END");
  const Bytes target = to_bytes(std::string(5000, 'a') + "end");
  const auto result = encode(as_view(base), as_view(target));
  Bytes wrong = base;
  wrong[10] ^= 1;
  EXPECT_THROW(apply(as_view(wrong), as_view(result.delta)), CorruptDelta);
}

TEST(Delta, ApplyRejectsTamperedDelta) {
  const Bytes base = random_bytes(21, 4000);
  Bytes target = base;
  target[5] ^= 0xFF;
  auto result = encode(as_view(base), as_view(target));
  int rejected = 0;
  for (std::size_t pos = 4; pos < result.delta.size(); pos += result.delta.size() / 9) {
    Bytes damaged = result.delta;
    damaged[pos] ^= 0x20;
    try {
      const Bytes out = apply(as_view(base), as_view(damaged));
      EXPECT_EQ(out, target);  // only acceptable if the flip was immaterial
    } catch (const CorruptDelta&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST(Delta, ApplyRejectsGarbage) {
  const Bytes base = to_bytes("base");
  EXPECT_THROW(apply(as_view(base), as_view(to_bytes("not a delta"))), CorruptDelta);
  EXPECT_THROW(apply(as_view(base), {}), CorruptDelta);
}

TEST(Delta, InspectReportsHeader) {
  const Bytes base = random_bytes(31, 1234);
  const Bytes target = random_bytes(32, 777);
  const auto result = encode(as_view(base), as_view(target));
  const DeltaInfo info = inspect(as_view(result.delta));
  EXPECT_EQ(info.base_size, base.size());
  EXPECT_EQ(info.target_size, target.size());
  EXPECT_EQ(info.base_crc, util::crc32(as_view(base)));
  EXPECT_EQ(info.target_crc, util::crc32(as_view(target)));
}

// ------------------------------------------------------------ cached encoder

/// Fixed corpus exercising every matcher path: template documents (temporal
/// + cross-document deltas), adversarial shapes, repetitive targets, empties.
std::vector<std::pair<Bytes, Bytes>> golden_corpus() {
  const trace::DocumentTemplate tmpl(7, trace::TemplateConfig{});
  const trace::DocumentTemplate other(43, trace::TemplateConfig{});
  std::string run3 = "abc";
  while (run3.size() < 5000) run3 += "abc";
  return {
      {tmpl.generate(0, 1, 0), tmpl.generate(0, 1, 120 * util::kSecond)},
      {tmpl.generate(0, 1, 0), tmpl.generate(3, 9, 120 * util::kSecond)},
      {tmpl.generate(0, 1, 0), other.generate(99, 200, 0)},
      {random_bytes(1, 5000), random_bytes(2, 5000)},
      {random_bytes(3, 5000), random_bytes(3, 5000)},
      {to_bytes(""), random_bytes(4, 1000)},
      {random_bytes(5, 1000), to_bytes("")},
      {to_bytes("zz"), to_bytes(run3)},
      {to_bytes(std::string(1000, 'x')), to_bytes(std::string(3000, 'x'))},
  };
}

TEST(Encoder, GoldenByteIdenticalToOneShotAndRoundTrips) {
  // The cached-table encoder must be a pure amortization: for every corpus
  // pair its output is byte-for-byte the one-shot encode() output,
  // encode_size() is exact, and the delta applies back to the target
  // bit-exactly.
  for (const auto& [base, target] : golden_corpus()) {
    const auto one_shot = encode(as_view(base), as_view(target));
    const Encoder cached(base);
    const auto from_cache = cached.encode(as_view(target));
    EXPECT_EQ(from_cache.delta, one_shot.delta);
    EXPECT_EQ(from_cache.chunk_used, one_shot.chunk_used);
    EXPECT_EQ(from_cache.copy_bytes, one_shot.copy_bytes);
    EXPECT_EQ(from_cache.add_bytes, one_shot.add_bytes);
    EXPECT_EQ(cached.encode_size(as_view(target)), one_shot.delta.size());
    EXPECT_EQ(apply(as_view(base), as_view(from_cache.delta)), target);
    // Deterministic: re-encoding through the same cached table cannot
    // change a byte.
    EXPECT_EQ(cached.encode(as_view(target)).delta, one_shot.delta);
  }
}

TEST(Encoder, ReportsBaseAndCrc) {
  const Bytes base = random_bytes(77, 4096);
  const Encoder encoder(base);
  EXPECT_EQ(encoder.base(), base);
  EXPECT_EQ(encoder.base_crc(), util::crc32(as_view(base)));
  const Estimator estimator(base);
  EXPECT_EQ(estimator.base(), base);
  EXPECT_EQ(estimator.shared_base().get(), &estimator.base());
}

TEST(Encoder, EstimateDeltaSizeMatchesEncodeExactly) {
  // Both size-only paths are exact, not approximations: encode_size() is
  // the materialized delta's size, and the one-shot estimate is the cached
  // estimator's.
  for (const auto& [base, target] : golden_corpus()) {
    const Encoder encoder(base);
    EXPECT_EQ(encoder.encode_size(as_view(target)),
              encode(as_view(base), as_view(target)).delta.size());
    EXPECT_EQ(estimate_delta_size(as_view(base), as_view(target)),
              Estimator(base).estimate(as_view(target)));
  }
}

// ------------------------------------------------- pinned matcher output
//
// Both values below were recorded from the implementation that still carried
// the hash-chain transmit path, the codec presets and a fingerprint array in
// the footprint table. They pin that the encoder's table (positions only,
// every hit verified with memcmp) and the estimator's fixed parameterization
// changed no delta byte, no coverage bit and no estimate.

constexpr std::size_t kGoldenPairs = 3000;

/// Seeded low-entropy document pairs. Small alphabets and a repeated motif
/// give the matchers dense fingerprint collisions, first-come-wins conflicts,
/// short and long matches and retro-corrections; bases below the rolling
/// window and empty targets appear too.
std::vector<std::pair<Bytes, Bytes>> golden_pairs() {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  pairs.reserve(kGoldenPairs);
  util::Rng rng(2002);
  const auto letters = [&rng](Bytes& out, std::size_t n, std::size_t alphabet) {
    for (std::size_t k = 0; k < n; ++k) {
      out.push_back(static_cast<std::uint8_t>('a' + rng.next_below(alphabet)));
    }
  };
  for (std::size_t i = 0; i < kGoldenPairs; ++i) {
    const std::size_t alphabet = std::size_t{2} << rng.next_below(4);  // 2, 4, 8 or 16
    Bytes motif;
    letters(motif, 8 + rng.next_below(120), alphabet);
    Bytes base;
    const std::size_t base_len = 1 + rng.next_below(6000);
    while (base.size() < base_len) {
      if (rng.next_below(3) == 0) {
        util::append(base, as_view(motif));
      } else {
        letters(base, 1 + rng.next_below(64), alphabet);
      }
    }
    Bytes target;
    const std::size_t target_len = rng.next_below(2 * base_len);
    while (target.size() < target_len) {
      switch (rng.next_below(4)) {
        case 0:
        case 1: {  // a base segment
          const std::size_t off = rng.next_below(base.size());
          const std::size_t len =
              std::min<std::size_t>(base.size() - off, 1 + rng.next_below(512));
          util::append(target, as_view(base).subspan(off, len));
          break;
        }
        case 2:
          letters(target, 1 + rng.next_below(96), alphabet);
          break;
        default:
          util::append(target, as_view(motif));
          break;
      }
    }
    pairs.emplace_back(std::move(base), std::move(target));
  }
  return pairs;
}

TEST(Encoder, PinnedDeltasAndCoverageOverSeededCorpus) {
  std::uint32_t crc = 0;
  std::uint64_t delta_bytes = 0;
  for (const auto& [base, target] : golden_pairs()) {
    const EncodeResult r = encode(as_view(base), as_view(target));
    crc = util::crc32(as_view(r.delta), crc);
    delta_bytes += r.delta.size();
    Bytes bits((r.chunk_used.size() + 7) / 8, 0);
    for (std::size_t c = 0; c < r.chunk_used.size(); ++c) {
      if (r.chunk_used[c]) bits[c / 8] |= static_cast<std::uint8_t>(1u << (c % 8));
    }
    crc = util::crc32(as_view(bits), crc);
  }
  EXPECT_EQ(delta_bytes, 1024976u);
  EXPECT_EQ(crc, 0x44cb3808u);
}

TEST(Estimator, PinnedEstimatesOverSeededCorpus) {
  // Both directions of every pair: the grouping probe runs document-vs-base,
  // the selector scores candidates against each other.
  std::uint32_t crc = 0;
  std::uint64_t sum = 0;
  for (const auto& [base, target] : golden_pairs()) {
    for (const auto& [from, to] : {std::pair{&base, &target}, std::pair{&target, &base}}) {
      const std::uint64_t size = estimate_delta_size(as_view(*from), as_view(*to));
      Bytes le(8);
      for (int k = 0; k < 8; ++k) le[k] = static_cast<std::uint8_t>(size >> (8 * k));
      crc = util::crc32(as_view(le), crc);
      sum += size;
    }
  }
  EXPECT_EQ(sum, 3920092u);
  EXPECT_EQ(crc, 0x5fea862bu);
}

// golden_pairs() bases stay under ~12 KB. These span 12 KiB to 1.5 MiB, so
// the estimator's head table takes every size from 2^13 entries up to its
// 2^17 cap. Every third base is mostly a few 8-byte chunks repeated at
// 8-byte alignment: each of their hashes covers hundreds to tens of
// thousands of slots and shares its bucket with hashes of the letter runs
// between them. The sum and crc were recorded from the fixed 2^17-entry
// hash-chain index that predates the base-sized one.

constexpr std::size_t kLargePairs = 30;

std::vector<std::pair<Bytes, Bytes>> large_base_pairs() {
  std::vector<std::pair<Bytes, Bytes>> pairs;
  pairs.reserve(kLargePairs);
  util::Rng rng(2016);
  const auto letters = [&rng](Bytes& out, std::size_t n, std::size_t alphabet) {
    for (std::size_t k = 0; k < n; ++k) {
      out.push_back(static_cast<std::uint8_t>('a' + rng.next_below(alphabet)));
    }
  };
  for (std::size_t i = 0; i < kLargePairs; ++i) {
    const std::size_t scale = std::size_t{12} << (10 + i % 7);  // 12 KiB .. 768 KiB
    const std::size_t base_len = scale + rng.next_below(scale + 1);
    const std::size_t alphabet = 4 + rng.next_below(23);
    const bool chunky = i % 3 == 0;
    std::vector<Bytes> motifs(chunky ? 2 + rng.next_below(3) : 1);
    for (auto& motif : motifs) letters(motif, chunky ? 8 : 8 + rng.next_below(120), alphabet);
    const auto any_motif = [&] { return as_view(motifs[rng.next_below(motifs.size())]); };
    Bytes base;
    while (base.size() < base_len) {
      if (chunky) {
        if (rng.next_below(8) != 0) {
          util::append(base, any_motif());
        } else {
          letters(base, 8 * (1 + rng.next_below(3)), alphabet);
        }
      } else if (rng.next_below(3) == 0) {
        util::append(base, any_motif());
      } else {
        letters(base, 1 + rng.next_below(64), alphabet);
      }
    }
    Bytes target;
    const std::size_t target_len = base_len / 2 + rng.next_below(base_len);
    while (target.size() < target_len) {
      switch (rng.next_below(4)) {
        case 0:
        case 1: {  // a base segment
          const std::size_t off = rng.next_below(base.size());
          const std::size_t len =
              std::min<std::size_t>(base.size() - off, 1 + rng.next_below(4096));
          util::append(target, as_view(base).subspan(off, len));
          break;
        }
        case 2:
          letters(target, 1 + rng.next_below(96), alphabet);
          break;
        default:
          util::append(target, any_motif());
          break;
      }
    }
    pairs.emplace_back(std::move(base), std::move(target));
  }
  return pairs;
}

TEST(Estimator, PinnedEstimatesOverLargeBases) {
  std::uint32_t crc = 0;
  std::uint64_t sum = 0;
  for (const auto& [base, target] : large_base_pairs()) {
    for (const auto& [from, to] : {std::pair{&base, &target}, std::pair{&target, &base}}) {
      const std::uint64_t size = Estimator(*from).estimate(as_view(*to));
      Bytes le(8);
      for (int k = 0; k < 8; ++k) le[k] = static_cast<std::uint8_t>(size >> (8 * k));
      crc = util::crc32(as_view(le), crc);
      sum += size;
    }
  }
  EXPECT_EQ(sum, 2499449u);
  EXPECT_EQ(crc, 0x5ebd6348u);
}

TEST(Estimator, IndexSizedToBase) {
  // Head entries: the smallest power of two >= 4 x slots, at most 2^17; one
  // chain entry per 8th base position; 4 bytes each.
  EXPECT_EQ(Estimator(random_bytes(1, 7)).index_bytes(), 0u);  // no slot, no head
  EXPECT_EQ(Estimator(random_bytes(2, 8)).index_bytes(), (4u + 1u) * 4u);
  EXPECT_EQ(Estimator(random_bytes(3, 11264)).index_bytes(), (8192u + 1408u) * 4u);
  EXPECT_EQ(Estimator(random_bytes(4, std::size_t{1} << 20)).index_bytes(),
            ((std::size_t{1} << 17) + (std::size_t{1} << 17)) * 4u);
  // The encoder's footprint table does not scale with the base.
  EXPECT_EQ(Encoder(random_bytes(5, 7)).index_bytes(), std::size_t{256} << 10);
  EXPECT_EQ(Encoder(random_bytes(6, 11264)).index_bytes(), std::size_t{256} << 10);
}

// ------------------------------------------------------------ paper-scale behaviour

TEST(Delta, TemporalSnapshotsProduceSmallDeltas) {
  // Consecutive snapshots of one dynamic document: delta should be a small
  // fraction of the document (the §II premise).
  const trace::DocumentTemplate tmpl(7, trace::TemplateConfig{});
  const Bytes snap1 = tmpl.generate(5, 77, 0);
  const Bytes snap2 = tmpl.generate(5, 77, 10 * util::kSecond);
  const auto result = encode(as_view(snap1), as_view(snap2));
  EXPECT_EQ(apply(as_view(snap1), as_view(result.delta)), snap2);
  EXPECT_LT(result.delta.size() * 5, snap2.size());
}

// ------------------------------------------- golden self-reference semantics
//
// The CBD1 superstring convention (COPY addresses >= base_size read the
// target's own already-decoded prefix, overlapping spans decode byte-wise
// forward) has one consumer, apply_into, the only CBD1 decoder. The encoder
// never emits a self-copy, so these goldens pin the semantics against a
// byte-at-a-time reference decoder: a future "optimization" of apply_into's
// bulk-memcpy path cannot silently change them.

/// COPY/ADD spec for hand-assembling a CBD1 stream.
struct GoldenInst {
  bool is_copy = false;
  std::size_t addr = 0;  // wire address (superstring convention)
  std::string literal;   // ADD payload
  std::size_t len = 0;   // COPY length
};

/// The reference decoder: strictly byte-at-a-time, no bulk copies at all.
Bytes reference_decode(util::BytesView base, const std::vector<GoldenInst>& insts) {
  Bytes out;
  for (const GoldenInst& inst : insts) {
    if (!inst.is_copy) {
      for (const char c : inst.literal) out.push_back(static_cast<std::uint8_t>(c));
    } else if (inst.addr >= base.size()) {
      const std::size_t taddr = inst.addr - base.size();
      for (std::size_t i = 0; i < inst.len; ++i) out.push_back(out[taddr + i]);
    } else {
      for (std::size_t i = 0; i < inst.len; ++i) out.push_back(base[inst.addr + i]);
    }
  }
  return out;
}

Bytes assemble_cbd1(util::BytesView base, const std::vector<GoldenInst>& insts,
                    const Bytes& target) {
  Bytes delta;
  util::append(delta, std::string_view("CBD1"));
  util::put_uvarint(delta, base.size());
  util::put_uvarint(delta, target.size());
  const std::uint32_t base_crc = util::crc32(base);
  const std::uint32_t target_crc = util::crc32(as_view(target));
  for (int i = 0; i < 4; ++i) delta.push_back(static_cast<std::uint8_t>(base_crc >> (8 * i)));
  for (int i = 0; i < 4; ++i) {
    delta.push_back(static_cast<std::uint8_t>(target_crc >> (8 * i)));
  }
  for (const GoldenInst& inst : insts) {
    if (inst.is_copy) {
      util::put_uvarint(delta, (inst.len << 1) | 1);
      util::put_uvarint(delta, inst.addr);
    } else {
      util::put_uvarint(delta, inst.literal.size() << 1);
      util::append(delta, std::string_view(inst.literal));
    }
  }
  return delta;
}

void expect_golden(util::BytesView base, const std::vector<GoldenInst>& insts,
                   const std::string& expected) {
  const Bytes target = reference_decode(base, insts);
  ASSERT_EQ(util::as_string_view(as_view(target)), expected);
  const Bytes delta = assemble_cbd1(base, insts, target);
  Bytes out;
  apply_into(base, as_view(delta), out);  // the bulk path under test
  EXPECT_EQ(out, target);
}

TEST(Delta, GoldenSelfCopyAtExactBaseBoundary) {
  // addr == base_size is the first superstring address: target offset 0.
  // One below it is the last base byte. The two must not alias.
  const Bytes base = to_bytes("ABCDEFGH");
  expect_golden(as_view(base),
                {GoldenInst{false, 0, "xy", 0},
                 GoldenInst{true, 8, "", 2},    // superstring: target[0, 2) = "xy"
                 GoldenInst{true, 7, "", 1}},   // base: base[7] = "H"
                "xyxyH");
}

TEST(Delta, GoldenOverlappingSelfCopyActsAsRunGenerator) {
  // len far beyond the decode frontier: each byte reads one the same COPY
  // just produced (the run-like convention the bulk path must reproduce by
  // splitting at the frontier).
  const Bytes base = to_bytes("ABCDEFGH");
  expect_golden(as_view(base), {GoldenInst{false, 0, "ab", 0}, GoldenInst{true, 8, "", 10}},
                "abababababab");  // 2 seed + 10 amplified bytes
  // Period-1: single seeded byte amplified.
  expect_golden(as_view(base), {GoldenInst{false, 0, "q", 0}, GoldenInst{true, 8, "", 7}},
                "qqqqqqqq");
}

TEST(Delta, GoldenNonOverlappingSelfCopyUsesDecodedPrefix) {
  const Bytes base = to_bytes("ABCDEFGH");
  expect_golden(as_view(base),
                {GoldenInst{false, 0, "hello ", 0},
                 GoldenInst{true, 8, "", 5},  // "hello" again, fully decoded
                 GoldenInst{true, 0, "", 3}}, // then base "ABC"
                "hello helloABC");
}

TEST(Delta, GoldenMixedBaseAndSelfCopiesMatchReference) {
  // A denser program mixing every addressing flavour; compared wholesale
  // against the byte-at-a-time reference rather than a pinned literal.
  const Bytes base = to_bytes("The quick brown fox jumps over the lazy dog");
  const std::vector<GoldenInst> insts = {
      GoldenInst{true, 4, "", 6},                 // "quick "
      GoldenInst{false, 0, "--", 0},              //
      GoldenInst{true, base.size() + 0, "", 8},   // self: copies "quick --"
      GoldenInst{true, base.size() + 2, "", 20},  // overlapping self-run
      GoldenInst{true, 35, "", 8},                // "lazy dog"
  };
  const Bytes target = reference_decode(as_view(base), insts);
  const Bytes delta = assemble_cbd1(as_view(base), insts, target);
  Bytes out;
  apply_into(as_view(base), as_view(delta), out);
  EXPECT_EQ(out, target);
  EXPECT_EQ(apply(as_view(base), as_view(delta)), target);
}

TEST(Delta, GoldenSelfCopyPastFrontierRejected) {
  // A self-copy may start at most at the frontier; one past it reads a byte
  // that does not exist yet in any decode order.
  const Bytes base = to_bytes("ABCDEFGH");
  const std::vector<GoldenInst> insts = {GoldenInst{false, 0, "xy", 0},
                                         GoldenInst{true, 8 + 2, "", 3}};
  Bytes forged;  // target claim is arbitrary: decode must fail before checksum
  forged.assign(5, 'z');
  const Bytes delta = assemble_cbd1(as_view(base), insts, forged);
  Bytes out;
  EXPECT_THROW(apply_into(as_view(base), as_view(delta), out), CorruptDelta);
}

TEST(Delta, OverlappingSelfCopyRoundTrips) {
  // Period-3 run: a self-copy whose distance is smaller than its length,
  // through both decoder entry points.
  const Bytes base = to_bytes("zz");
  const std::vector<GoldenInst> insts = {GoldenInst{false, 0, "abc", 0},
                                         GoldenInst{true, base.size(), "", 4997}};
  const Bytes target = reference_decode(as_view(base), insts);
  const Bytes delta = assemble_cbd1(as_view(base), insts, target);
  EXPECT_EQ(apply(as_view(base), as_view(delta)), target);
  Bytes out;
  apply_into(as_view(base), as_view(delta), out);
  EXPECT_EQ(out, target);
}

TEST(Delta, SelfReferenceWorksWithEmptyBase) {
  // With an empty base every COPY address is a superstring address: 0 is
  // the target's first byte.
  const std::string row = "<item>repeated catalog row</item>\n";
  expect_golden({}, {GoldenInst{false, 0, row, 0}, GoldenInst{true, 0, "", row.size() * 2}},
                row + row + row);
}

TEST(Delta, NonOverlappingSelfCopyBulkPathRoundTrips) {
  // Self-copies whose source span is entirely behind the frontier: apply()
  // takes the bulk memcpy path. A 1 KB block repeated by copies of the
  // growing prefix, so every copy is long and strictly non-overlapping.
  const Bytes block = random_bytes(91, 1024);
  std::vector<GoldenInst> insts = {
      GoldenInst{false, 0, std::string(block.begin(), block.end()), 0}};
  for (std::size_t have = 1024; have < 16 * 1024; have *= 2) {
    insts.push_back(GoldenInst{true, 0, "", have});
  }
  const Bytes target = reference_decode({}, insts);
  Bytes expected;
  for (int i = 0; i < 16; ++i) util::append(expected, as_view(block));
  ASSERT_EQ(target, expected);
  EXPECT_EQ(apply({}, as_view(assemble_cbd1({}, insts, target))), target);
}

TEST(Delta, ZeroLengthAddsAreAccepted) {
  // The encoder never writes an empty instruction, but the wire allows one:
  // a zero-length ADD on either side of a real one decodes as a no-op.
  const std::vector<GoldenInst> insts = {GoldenInst{false, 0, "", 0},
                                         GoldenInst{false, 0, "ab", 0},
                                         GoldenInst{false, 0, "", 0}};
  const Bytes target = to_bytes("ab");
  EXPECT_EQ(apply({}, as_view(assemble_cbd1({}, insts, target))), target);
}

TEST(Delta, SpatialNeighborsProduceModerateDeltas) {
  // Different documents of one category share the template skeleton: the
  // delta should be far smaller than the document but larger than the
  // temporal delta (the class-based premise).
  const trace::DocumentTemplate tmpl(7, trace::TemplateConfig{});
  const Bytes doc_a = tmpl.generate(5, 77, 0);
  const Bytes doc_b = tmpl.generate(6, 88, 0);
  const auto cross = encode(as_view(doc_a), as_view(doc_b));
  EXPECT_EQ(apply(as_view(doc_a), as_view(cross.delta)), doc_b);
  EXPECT_LT(cross.delta.size() * 2, doc_b.size());
}

}  // namespace
}  // namespace cbde::delta
