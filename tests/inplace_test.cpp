#include <gtest/gtest.h>

#include <string>

#include "delta/delta.hpp"
#include "delta/inplace.hpp"
#include "delta/ir.hpp"
#include "obs/obs.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

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

/// A two-copy program exchanging the halves of a `2 * half`-byte base — the
/// canonical CRWI cycle (each copy reads what the other writes).
Program swap_program(const Bytes& base, std::size_t half) {
  Bytes target;
  util::append(target, util::BytesView(base.data() + half, half));
  util::append(target, util::BytesView(base.data(), half));
  Program p;
  p.base_size = base.size();
  p.target_size = target.size();
  p.base_crc = util::crc32(as_view(base));
  p.target_crc = util::crc32(as_view(target));
  p.insts.push_back(Inst{OpKind::kCopyBase, half, 0, half, 0});
  p.insts.push_back(Inst{OpKind::kCopyBase, half, half, 0, 0});
  return p;
}

Bytes swap_target(const Bytes& base, std::size_t half) {
  Bytes target;
  util::append(target, util::BytesView(base.data() + half, half));
  util::append(target, util::BytesView(base.data(), half));
  return target;
}

// ------------------------------------------------------------ verifier

TEST(InPlace, IdenticalDocumentDeltaIsSafe) {
  const Bytes doc = random_bytes(1, 4096);
  const auto result = encode(as_view(doc), as_view(doc));
  const Program p = lift(as_view(result.delta));
  const VerifyResult v = verify_in_place(p);
  EXPECT_TRUE(v.in_place_safe);  // one self-overlapping copy: memmove-legal
  EXPECT_EQ(v.scratch_bound, 0u);
  EXPECT_EQ(v.cycles, 0u);
  EXPECT_TRUE(v.first_conflict.empty());

  Bytes buf = doc;
  apply_in_place(buf, as_view(result.delta));
  EXPECT_EQ(buf, doc);
}

TEST(InPlace, ReorderableConflictIsUnsafeButAcyclic) {
  const Bytes base = random_bytes(2, 20);
  // inst0 overwrites base[10, 20) before inst1 reads it: unsafe as ordered,
  // but swapping the two instructions fixes it without any scratch.
  Bytes target(20, 0);
  for (std::size_t i = 0; i < 10; ++i) {
    target[10 + i] = 'X';
    target[i] = base[10 + i];
  }
  Program p;
  p.base_size = base.size();
  p.target_size = target.size();
  p.base_crc = util::crc32(as_view(base));
  p.target_crc = util::crc32(as_view(target));
  p.insts.push_back(Inst{OpKind::kAdd, 10, 10, 0, 0});
  p.data.assign(10, 'X');
  p.insts.push_back(Inst{OpKind::kCopyBase, 10, 0, 10, 0});

  const VerifyResult v = verify_in_place(p);
  EXPECT_FALSE(v.in_place_safe);
  EXPECT_EQ(v.cycles, 0u);
  EXPECT_EQ(v.scratch_bound, 0u);  // a reorder alone suffices
  EXPECT_NE(v.first_conflict.find("instruction 1"), std::string::npos);

  const TransformResult t = transform_in_place(p, as_view(base));
  EXPECT_TRUE(t.transformed);
  EXPECT_EQ(t.spilled_copies, 0u);
  EXPECT_EQ(t.add_converted_copies, 0u);
  EXPECT_EQ(t.scratch_bytes, 0u);
  EXPECT_TRUE(verify_in_place(t.program).in_place_safe);
  EXPECT_EQ(execute(t.program, as_view(base)), target);

  Bytes buf = base;
  apply_in_place(buf, as_view(lower(t.program)));
  EXPECT_EQ(buf, target);
}

TEST(InPlace, SwapCycleIsDetectedAndSpilled) {
  const Bytes base = random_bytes(3, 256);
  const Program p = swap_program(base, 128);
  const VerifyResult v = verify_in_place(p);
  EXPECT_FALSE(v.in_place_safe);
  EXPECT_EQ(v.cycles, 1u);
  EXPECT_EQ(v.scratch_bound, 128u);  // the cheapest copy of the cycle

  const TransformResult t = transform_in_place(p, as_view(base));
  EXPECT_TRUE(t.transformed);
  EXPECT_EQ(t.spilled_copies, 1u);
  EXPECT_EQ(t.add_converted_copies, 0u);
  EXPECT_EQ(t.scratch_bytes, 128u);
  EXPECT_LE(t.scratch_bytes, v.scratch_bound);
  EXPECT_EQ(t.program.scratch_bytes, 128u);

  Bytes buf = base;
  apply_in_place(buf, as_view(lower(t.program)));
  EXPECT_EQ(buf, swap_target(base, 128));
}

TEST(InPlace, SmallSwapCycleIsAddConverted) {
  const Bytes base = random_bytes(4, 32);
  const Program p = swap_program(base, 16);  // below add_convert_below = 64
  const TransformResult t = transform_in_place(p, as_view(base));
  EXPECT_TRUE(t.transformed);
  EXPECT_EQ(t.spilled_copies, 0u);
  EXPECT_EQ(t.add_converted_copies, 1u);
  EXPECT_EQ(t.add_converted_bytes, 16u);
  EXPECT_EQ(t.scratch_bytes, 0u);

  Bytes buf = base;
  apply_in_place(buf, as_view(lower(t.program)));
  EXPECT_EQ(buf, swap_target(base, 16));
}

TEST(InPlace, ScratchBudgetForcesAddConversion) {
  const Bytes base = random_bytes(5, 256);
  const Program p = swap_program(base, 128);
  TransformOptions options;
  options.max_scratch_bytes = 64;  // the 128-byte victim cannot spill
  const TransformResult t = transform_in_place(p, as_view(base), options);
  EXPECT_EQ(t.spilled_copies, 0u);
  EXPECT_EQ(t.add_converted_copies, 1u);
  EXPECT_EQ(t.scratch_bytes, 0u);

  Bytes buf = base;
  apply_in_place(buf, as_view(lower(t.program)));
  EXPECT_EQ(buf, swap_target(base, 128));
}

TEST(InPlace, SafeProgramShipsUntouched) {
  const Bytes base = random_bytes(6, 2048);
  Bytes target = base;
  for (std::size_t i = 200; i < 240; ++i) target[i] = 'Z';
  const auto result = encode(as_view(base), as_view(target));
  const Program p = lift(as_view(result.delta));
  ASSERT_TRUE(verify_in_place(p).in_place_safe);
  const TransformResult t = transform_in_place(p, as_view(base));
  EXPECT_FALSE(t.transformed);  // caller keeps shipping the original bytes
  EXPECT_EQ(t.scratch_bytes, 0u);
}

// --------------------------------------------------- crafted-program rejects

TEST(InPlace, CircularTargetCopiesAreRejected) {
  // Two target-copies consuming each other's output: the target content is
  // defined circularly; no execution order exists and no base-copy can be
  // sacrificed to break the cycle.
  Program p;
  p.base_size = 0;
  p.target_size = 20;
  p.base_crc = util::crc32({});
  p.target_crc = 0;
  p.insts.push_back(Inst{OpKind::kCopyTarget, 10, 0, 10, 0});
  p.insts.push_back(Inst{OpKind::kCopyTarget, 10, 10, 0, 0});
  EXPECT_THROW(verify_in_place(p), CorruptDelta);
}

TEST(InPlace, BackwardOverlappingTargetCopyIsRejected) {
  Program p;
  p.base_size = 0;
  p.target_size = 20;
  p.insts.push_back(Inst{OpKind::kAdd, 10, 10, 0, 0});
  p.data.assign(10, 'q');
  // Reads [5, 15) while writing [0, 10): the overlapped cells are read after
  // this very instruction overwrote them, in every order.
  p.insts.push_back(Inst{OpKind::kCopyTarget, 10, 0, 5, 0});
  EXPECT_THROW(build_crwi(p), CorruptDelta);
}

TEST(InPlace, NonPartitionProgramsAreRejected) {
  Program p;
  p.base_size = 4;
  p.target_size = 8;
  p.insts.push_back(Inst{OpKind::kAdd, 8, 0, 0, 0});
  p.data.assign(8, 'a');
  p.insts.push_back(Inst{OpKind::kAdd, 4, 2, 0, 0});  // overlaps the first write
  EXPECT_THROW(build_crwi(p), CorruptDelta);

  Program q;
  q.base_size = 4;
  q.target_size = 8;
  q.insts.push_back(Inst{OpKind::kAdd, 4, 0, 0, 0});  // leaves [4, 8) unwritten
  q.data.assign(4, 'a');
  EXPECT_THROW(build_crwi(q), CorruptDelta);
}

TEST(InPlace, ScratchReadOfUnspilledBytesIsRejected) {
  Program p;
  p.base_size = 8;
  p.target_size = 4;
  p.scratch_bytes = 16;
  p.insts.push_back(Inst{OpKind::kSpill, 2, 0, 0, 0});
  p.insts.push_back(Inst{OpKind::kCopyScratch, 4, 0, 0, 0});  // [2, 4) never spilled
  EXPECT_THROW(build_crwi(p), CorruptDelta);
}

// --------------------------------------------------------- apply_in_place

TEST(InPlace, UnsafeDeltaThrowsAndLeavesBufferUntouched) {
  // Swapped halves force the encoder to emit a copy reading base bytes its
  // earlier copy already overwrote — naturally not in-place applicable.
  const Bytes base = random_bytes(7, 4096);
  const Bytes target = swap_target(base, 2048);
  const auto result = encode(as_view(base), as_view(target));
  ASSERT_FALSE(verify_in_place(lift(as_view(result.delta))).in_place_safe);

  Bytes buf = base;
  EXPECT_THROW(apply_in_place(buf, as_view(result.delta)), NotInPlaceApplicable);
  EXPECT_EQ(buf, base);  // untouched on refusal

  // NotInPlaceApplicable is a CorruptDelta, so a generic corrupt-input
  // handler still catches it; and base mismatch stays a plain CorruptDelta.
  Bytes wrong = base;
  wrong[0] ^= 1;
  EXPECT_THROW(apply_in_place(wrong, as_view(result.delta)), CorruptDelta);
}

TEST(InPlace, DifferentialAgainstTwoBufferApplyAcrossCodecs) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    const Bytes block_a = random_bytes(seed, 600);
    const Bytes block_b = random_bytes(seed + 1000, 800);
    Bytes base;
    util::append(base, as_view(block_a));
    util::append(base, as_view(block_b));
    Bytes target;  // reordered blocks + fresh bytes: unsafe deltas likely
    util::append(target, as_view(block_b));
    util::append(target, random_bytes(seed + 2000, 150));
    util::append(target, as_view(block_a));

    // The encoder's delta, and the same target extended by a superstring
    // copy of its head as lifted from a CBDP program: the encoder never
    // self-references, but kCopyTarget programs must keep reconstructing.
    const auto result = encode(as_view(base), as_view(target));
    Program self = lift(as_view(result.delta));
    Bytes extended = target;
    util::append(extended, util::BytesView(target.data(), 800));
    self.target_size = extended.size();
    self.target_crc = util::crc32(as_view(extended));
    self.insts.push_back(Inst{OpKind::kCopyTarget, 800, target.size(), 0, 0});
    for (const auto& [wire0, expected] :
         {std::pair{result.delta, target}, std::pair{lower(self), extended}}) {
      ASSERT_EQ(execute(lift(as_view(wire0)), as_view(base)), expected);
      const Program p = lift(as_view(wire0));
      Bytes wire = wire0;
      if (!verify_in_place(p).in_place_safe) {
        const TransformResult t = transform_in_place(p, as_view(base));
        ASSERT_TRUE(t.transformed);
        wire = lower(t.program);
      }
      Bytes buf = base;
      apply_in_place(buf, as_view(wire));
      EXPECT_EQ(buf, expected) << "seed " << seed;
    }
  }
}

TEST(InPlace, GrowingAndShrinkingTargets) {
  const Bytes base = random_bytes(8, 1000);
  Bytes grown = base;
  util::append(grown, random_bytes(9, 3000));  // target > base
  const Bytes shrunk(base.begin(), base.begin() + 120);  // target < base

  for (const Bytes& target : {grown, shrunk}) {
    const auto result = encode(as_view(base), as_view(target));
    const Program p = lift(as_view(result.delta));
    Bytes wire = result.delta;
    if (!verify_in_place(p).in_place_safe) {
      wire = lower(transform_in_place(p, as_view(base)).program);
    }
    Bytes buf = base;
    apply_in_place(buf, as_view(wire));
    EXPECT_EQ(buf, target);
  }
}

// ------------------------------------------------------------ delta lint

TEST(InPlace, DeltaLintCountsFindings) {
  Program p;
  p.base_size = 64;
  p.target_size = 40;
  p.insts.push_back(Inst{OpKind::kCopyBase, 16, 0, 0, 0});
  p.insts.push_back(Inst{OpKind::kCopyBase, 16, 16, 8, 0});  // overlaps read [8, 16)
  p.insts.push_back(Inst{OpKind::kAdd, 6, 32, 0, 0});
  p.data.assign(6, 'r');  // uniform: dead weight gzip would carry in O(1)
  p.insts.push_back(Inst{OpKind::kAdd, 2, 38, 0, 6});
  util::append(p.data, std::string_view("st"));

  const DeltaLintStats stats = delta_lint(p, /*wire_size=*/30);
  EXPECT_EQ(stats.instructions, 4u);
  EXPECT_EQ(stats.copy_insts, 2u);
  EXPECT_EQ(stats.add_insts, 2u);
  EXPECT_EQ(stats.overlapping_copy_pairs, 1u);
  EXPECT_EQ(stats.dead_add_runs, 1u);
  // 30 wire bytes minus 6 + 2 ADD literals.
  EXPECT_EQ(stats.instruction_overhead_bytes, 22u);
}

TEST(InPlace, LintCleanEncoderOutputHasNoDeadRuns) {
  const Bytes base = random_bytes(10, 2048);
  Bytes target = base;
  for (std::size_t i = 0; i < 64; ++i) target[512 + i] = 'V';
  const auto result = encode(as_view(base), as_view(target));
  const DeltaLintStats stats = delta_lint(lift(as_view(result.delta)),
                                          result.delta.size());
  EXPECT_EQ(stats.instructions, stats.copy_insts + stats.add_insts);
  EXPECT_GT(stats.instruction_overhead_bytes, 0u);  // header alone guarantees it
  EXPECT_LT(stats.instruction_overhead_bytes, result.delta.size());
}

// ------------------------------------------------------------ instruments

TEST(InPlace, InstrumentsRecordVerifyTransformAndLint) {
  obs::Obs obs;
  const InPlaceInstruments ins = InPlaceInstruments::attach(obs);
  ASSERT_NE(ins.verified, nullptr);
  ASSERT_NE(ins.transformed, nullptr);
  ASSERT_NE(ins.scratch_bytes, nullptr);

  const Bytes doc = random_bytes(11, 512);
  const auto result = encode(as_view(doc), as_view(doc));
  Bytes buf = doc;
  apply_in_place(buf, as_view(result.delta), &ins);
  EXPECT_EQ(ins.verified->value(), 1u);
  EXPECT_EQ(ins.scratch_bytes->count(), 1u);

  const Bytes base = random_bytes(12, 256);
  (void)transform_in_place(swap_program(base, 128), as_view(base), {}, &ins);
  EXPECT_EQ(ins.transformed->value(), 1u);

  DeltaLintStats stats;
  stats.overlapping_copy_pairs = 2;
  stats.dead_add_runs = 1;
  stats.instruction_overhead_bytes = 17;
  ins.observe_lint(stats);
  EXPECT_EQ(ins.lint_findings->value(), 3u);

  // attach() is idempotent: same registry handles back.
  const InPlaceInstruments again = InPlaceInstruments::attach(obs);
  EXPECT_EQ(again.verified, ins.verified);
}

}  // namespace
}  // namespace cbde::delta
