// In-place delta application: static analysis over delta programs.
//
// The memory-constrained end of the paper's link spectrum (modem/IoT
// clients, §II) cannot hold base + target + delta simultaneously; in-place
// application reconstructs the target *inside* the base buffer. Whether
// that is safe is a static property of the instruction stream: a COPY that
// reads base bytes which an earlier instruction already overwrote sees
// target content instead of base content and corrupts the output.
//
// The analysis follows the copy-read/write-interval (CRWI) formulation
// (Burns & Long's in-place reconstruction line of work): every instruction
// owns a write interval in the target and (for copies) a read interval in
// the base or target. The CRWI conflict digraph has an edge u -> v whenever
// v's write interval overlaps u's base-read interval (u must run before v
// to see pristine base bytes), and an edge w -> v whenever v reads target
// cells that w produces (w must run first). A topological order of this
// digraph is an execution order that is safe with zero extra memory; a
// cycle means some copy's input is clobbered in every order, and the cycle
// must be broken by sacrificing one base-copy — either converting it to an
// ADD (paying its length in delta bytes) or spilling its source bytes to a
// bounded scratch slot (paying its length in client memory). Every conflict
// cycle contains at least one base-copy (DESIGN.md §6 has the argument), so
// breaking at base-copies always suffices.
//
// Three passes are exposed:
//   verify_in_place    decides whether the program, executed in its current
//                      instruction order, is in-place safe, and computes
//                      the scratch-byte bound cycle-breaking would need
//   transform_in_place reorders + cycle-breaks so the result always
//                      verifies, with the scratch bound made explicit in
//                      the emitted CBDP program
//   delta_lint         instruction-stream hygiene stats (overlapping
//                      copies, uniform ADD runs, wire overhead)
//
// plus apply_in_place(), the execution engine the passes certify, and
// InPlaceInstruments, the cbde::obs export of the pass results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "delta/ir.hpp"
#include "util/bytes.hpp"

namespace cbde::obs {
class Obs;
class Counter;
class Histogram;
}  // namespace cbde::obs

namespace cbde::delta {

/// Thrown by apply_in_place() when the delta is well-formed but not safe to
/// execute inside the base buffer (run it through transform_in_place, or
/// fall back to two-buffer apply()). Distinct from plain CorruptDelta so
/// callers can fall back without swallowing real corruption.
class NotInPlaceApplicable : public CorruptDelta {
 public:
  using CorruptDelta::CorruptDelta;
};

/// The CRWI conflict digraph of a program. Node i is insts[i]; an edge
/// i -> j (j in either successor list) means i must execute before j. The
/// two lists keep the edge provenance, because cycle breaking treats them
/// differently: converting a base-copy to an ADD or spilling it deletes
/// exactly its conflict_adj out-edges (it no longer reads clobberable
/// bytes) while its producer_adj edges survive (its write interval is
/// unchanged) — the verifier's scratch bound models precisely that.
struct CrwiGraph {
  /// Type-i edges: i reads base bytes that each successor's write clobbers.
  std::vector<std::vector<std::uint32_t>> conflict_adj;
  /// Type-ii/iii edges: each successor consumes target (or scratch) cells
  /// that i produces.
  std::vector<std::vector<std::uint32_t>> producer_adj;
  std::size_t edges = 0;
};

/// Build the CRWI digraph. Requires the program to be a partition (each
/// target cell written exactly once — true for lifted sequential formats
/// and for transformer output); throws CorruptDelta when writes overlap, a
/// target-read has no producer, or an overlapping target-copy runs
/// backwards (write below read — not executable by any byte order).
CrwiGraph build_crwi(const Program& program);

struct VerifyResult {
  /// The program, executed in its current instruction order, reconstructs
  /// the target inside the base buffer (plus its declared scratch slot).
  bool in_place_safe = false;
  /// Scratch bytes needed to make the program in-place safe by spilling the
  /// cheapest base-copy per conflict cycle: 0 when the digraph is acyclic
  /// (a reorder alone suffices). For a program already carrying spills this
  /// adds to its declared scratch. Exact when every cyclic SCC is a single
  /// elementary cycle (the overwhelmingly common shape for sequential
  /// encoder output); a greedy upper bound otherwise. The transformer never
  /// uses more than this — ADD-conversion only ever substitutes delta bytes
  /// for scratch bytes.
  std::size_t scratch_bound = 0;
  /// Cyclic SCCs in the CRWI digraph (0 for acyclic programs).
  std::size_t cycles = 0;
  /// First order violation (empty when in_place_safe).
  std::string first_conflict;
};

/// The verifier: decides in-place applicability of the program *as ordered*
/// and derives the scratch bound from the digraph's cycle structure. Pure
/// analysis — reads no document bytes and writes nothing, so it runs on
/// untrusted deltas before any buffer is mutated.
VerifyResult verify_in_place(const Program& program);

/// Instruction-stream hygiene stats for one delta program (the delta-lint
/// pass).
struct DeltaLintStats {
  std::size_t instructions = 0;
  std::size_t copy_insts = 0;  ///< kCopyBase + kCopyTarget + kCopyScratch
  std::size_t add_insts = 0;   ///< kAdd
  /// Pairs of base-copies whose read intervals overlap — redundant base
  /// traffic the encoder could merge (and the in-place hazard surface).
  std::size_t overlapping_copy_pairs = 0;
  /// ADD instructions of >= 4 repeated identical bytes: dead weight the
  /// downstream gzip pass would express in O(1).
  std::size_t dead_add_runs = 0;
  /// Wire bytes that are instruction encoding rather than literal payload:
  /// wire_size - ADD literal bytes. The per-class instruction-overhead
  /// signal alongside the paper's Table II accounting.
  std::size_t instruction_overhead_bytes = 0;
};

/// Compute lint stats for a program; `wire_size` is the byte size of the
/// serialized delta it was lifted from (for the overhead split). Costs one
/// sort of the base-copy read intervals.
DeltaLintStats delta_lint(const Program& program, std::size_t wire_size);

/// Handles to the in-place metric family, registered on an Obs instance.
/// A default-constructed (all null) instance records nothing.
struct InPlaceInstruments {
  obs::Counter* verified = nullptr;     ///< programs that passed the verifier
  obs::Counter* transformed = nullptr;  ///< programs the transformer rewrote
  obs::Histogram* scratch_bytes = nullptr;  ///< scratch per verified program
  obs::Histogram* lint_overhead_bytes = nullptr;  ///< delta_lint overhead
  obs::Counter* lint_findings = nullptr;  ///< overlapping pairs + dead runs

  /// Register the family on `obs` (idempotent) and return live handles.
  static InPlaceInstruments attach(obs::Obs& obs);

  /// Record a lint pass result (no-op on null handles).
  void observe_lint(const DeltaLintStats& stats) const;
};

struct TransformOptions {
  /// Ceiling on total spill bytes; a cycle whose cheapest base-copy does
  /// not fit is broken by ADD-conversion instead. Must be
  /// <= kMaxInPlaceScratch.
  std::size_t max_scratch_bytes = 4096;
  /// Copies shorter than this are always ADD-converted rather than spilled:
  /// below ~64 bytes the delta-size cost of inlining the bytes is cheaper
  /// than a scratch slot plus two extra instructions.
  std::size_t add_convert_below = 64;
};

struct TransformResult {
  Program program;
  /// False when the input already verified in its original order — the
  /// caller should keep shipping the original delta bytes untouched.
  bool transformed = false;
  std::size_t spilled_copies = 0;
  std::size_t add_converted_copies = 0;
  /// Literal bytes ADD-conversion inlined into the program.
  std::size_t add_converted_bytes = 0;
  /// Scratch bytes the output program requires (== program.scratch_bytes).
  std::size_t scratch_bytes = 0;
};

/// The transformer: topologically reorders the program along its CRWI
/// digraph and breaks every conflict cycle at its cheapest base-copy (spill
/// when the copy is long and fits the scratch budget, ADD-convert
/// otherwise), so the result always passes verify_in_place(). `base` must
/// be the program's base-file (size and crc checked) — ADD-conversion
/// inlines the copy's source bytes, and the output is differentially
/// executed against it as a postcondition. Deterministic: all ties broken
/// by instruction index. Increments instruments->transformed when the
/// program was actually rewritten.
TransformResult transform_in_place(const Program& program, util::BytesView base,
                                   const TransformOptions& options = {},
                                   const InPlaceInstruments* instruments = nullptr);

/// Reconstruct the target inside `buf`, which must hold the base-file on
/// entry and holds the target on return. Accepts all three wire formats;
/// the program is verified (order safety, partition, scratch bounds) before
/// a single byte of `buf` is touched. Throws NotInPlaceApplicable when the
/// delta is valid but not in-place safe as ordered (transform it first) and
/// CorruptDelta on malformed input or a base mismatch — `buf` is unchanged
/// in both cases. A target-checksum failure after execution also throws
/// CorruptDelta, with `buf` unspecified (the order was verified, so only a
/// delta whose header lies about its own output reaches it). Peak extra
/// memory: the lifted instruction list plus the program's declared scratch
/// slot (<= kMaxInPlaceScratch), never a second document buffer.
void apply_in_place(util::Bytes& buf, util::BytesView delta,
                    const InPlaceInstruments* instruments = nullptr);

}  // namespace cbde::delta
