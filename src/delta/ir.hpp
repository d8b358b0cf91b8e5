// Delta-program intermediate representation.
//
// The deltas this system ships to clients are small *programs*: streams of
// COPY/ADD instructions that reconstruct a target document from a base file.
// The native tag-stream ("CBD1", delta.hpp) is what the server sends; the
// in-place reconstruction work (inplace.hpp) adds a second format, "CBDP",
// for programs that have been statically reordered. lift() decodes either
// into one shared IR; lower() serializes a (possibly reordered) program back
// to CBDP.
//
// The IR makes every write explicit: each instruction carries the absolute
// target offset it writes (`write_off`), so a program remains executable
// after its instructions are reordered — which is exactly what the CRWI
// transformer in inplace.hpp does. CBD1 deltas get their write offsets
// assigned during lift by replaying the output cursor.
//
// Instruction kinds and their operands:
//   kAdd          write data[data_off, data_off+len) at target[write_off]
//   kCopyBase     copy base[read_off, read_off+len) to target[write_off]
//   kCopyTarget   copy target[read_off, read_off+len) to target[write_off];
//                 when the intervals overlap (read_off < write_off) the copy
//                 is byte-wise forward, reproducing the run-like semantics of
//                 the CBD1 superstring convention
//   kSpill        save base[read_off, read_off+len) into scratch[write_off]
//                 (writes no target bytes; only CBDP programs contain these)
//   kCopyScratch  copy scratch[read_off, read_off+len) to target[write_off]
//
// CBDP wire format (reordered in-place programs):
//   "CBDP" | uvarint base_size | uvarint target_size |
//   crc32(base) LE | crc32(target) LE |
//   uvarint scratch_bytes | uvarint inst_count |
//   inst*  where inst = op byte | uvarint len | uvarint write_off |
//          then uvarint read_off (copies/spill) or `len` raw bytes (kAdd).
//   Op byte 1 is unassigned and rejected.
#pragma once

#include <cstdint>
#include <vector>

#include "delta/delta.hpp"
#include "util/bytes.hpp"

namespace cbde::delta {

/// Scratch-slot ceiling for CBDP programs (1 MiB). A transformed program
/// needing more scratch than this is rejected at parse time — the point of
/// in-place application is a memory-constrained client, and the transformer
/// never emits programs above its (much smaller) configured budget.
inline constexpr std::size_t kMaxInPlaceScratch = std::size_t{1} << 20;

/// The values are CBDP op bytes; 1 is unassigned, so lift() rejects it.
enum class OpKind : std::uint8_t {
  kAdd = 0,
  kCopyBase = 2,
  kCopyTarget = 3,
  kSpill = 4,
  kCopyScratch = 5,
};

struct Inst {
  OpKind op = OpKind::kAdd;
  std::size_t len = 0;
  /// Absolute target offset written (scratch offset for kSpill).
  std::size_t write_off = 0;
  /// Base offset (kCopyBase/kSpill), target offset (kCopyTarget) or scratch
  /// offset (kCopyScratch). Unused for kAdd.
  std::size_t read_off = 0;
  /// Offset into Program::data for kAdd.
  std::size_t data_off = 0;
};

/// One delta program in IR form. `data` pools every ADD literal so the
/// instruction vector stays POD-sized and reorder-friendly.
struct Program {
  std::size_t base_size = 0;
  std::size_t target_size = 0;
  std::uint32_t base_crc = 0;
  std::uint32_t target_crc = 0;
  /// Scratch bytes the program requires when executed in place (the spill
  /// slot high-water mark). 0 for freshly lifted CBD1 programs.
  std::size_t scratch_bytes = 0;
  std::vector<Inst> insts;
  util::Bytes data;

  /// Total target bytes the program writes (sum of non-spill lens).
  std::size_t bytes_written() const;
};

/// Wire format of a delta, from its magic.
enum class DeltaFormat { kCbd1, kCbdp };

/// Identify the container format; throws CorruptDelta on an unknown magic.
DeltaFormat detect_format(util::BytesView delta);

/// Decode any supported delta format into the IR. Structural validation
/// only: instruction bounds against the claimed base/target sizes, section
/// accounting, the decode-size cap. Whether the program is a *partition* of
/// the target (every cell written exactly once) is the in-place verifier's
/// job — sequential formats are partitions by construction, CBDP programs
/// must be checked. Throws CorruptDelta on malformed input.
Program lift(util::BytesView delta);

/// Serialize a program to the CBDP wire format. The inverse of lift() for
/// CBDP inputs: lift(lower(p)) reproduces `p` exactly (modulo data-pool
/// layout). Throws std::invalid_argument on a program whose scratch demand
/// exceeds kMaxInPlaceScratch.
util::Bytes lower(const Program& program);

/// Execute `program` sequentially into a fresh buffer (instructions in
/// vector order, each writing at its write_off). The reference semantics the
/// in-place path is verified against; also the only way to apply a CBDP
/// delta without the in-place machinery. Validates base size/crc and the
/// target crc like apply(). Throws CorruptDelta on any violation.
util::Bytes execute(const Program& program, util::BytesView base);

}  // namespace cbde::delta
