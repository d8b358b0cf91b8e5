#include "delta/ir.hpp"

#include <cstring>

#include "util/contracts.hpp"
#include "util/hash.hpp"
#include "util/varint.hpp"

namespace cbde::delta {
namespace {

void put_u32le(util::Bytes& out, std::uint32_t v) {
  // alloc: ok(4 bounded pushes into an output buffer lower() reserves up front)
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32le(util::BytesView in, std::size_t& pos) {
  if (pos + 4 > in.size()) throw CorruptDelta("ir: truncated header");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[pos++]) << (8 * i);
  return v;
}

/// Decode one varint and bound it by `cap` in a single step — every size
/// and offset in a delta header is attacker-controlled, so the bound is
/// applied before the value is ever used as a std::size_t.
std::size_t get_bounded(util::BytesView in, std::size_t& pos, std::uint64_t cap,
                        const char* what) {
  const auto v = util::get_uvarint(in, pos);
  if (!v) throw CorruptDelta(std::string("ir: bad varint for ") + what);
  if (*v > cap) throw CorruptDelta(std::string("ir: ") + what + " exceeds cap");
  return static_cast<std::size_t>(*v);
}

Program lift_cbd1(util::BytesView delta) {
  std::size_t pos = 0;
  const DeltaInfo info = inspect(delta);  // validates magic, sizes, cap
  pos = 4;
  (void)util::get_uvarint(delta, pos);  // base_size, re-read past
  (void)util::get_uvarint(delta, pos);  // target_size
  pos += 8;                             // the two crc words

  Program p;
  p.base_size = info.base_size;
  p.target_size = info.target_size;
  p.base_crc = info.base_crc;
  p.target_crc = info.target_crc;
  p.insts.reserve(32);
  // lint: growth-ok (instruction count is unknown until parsed; reserve(32)
  // seeds the growth and the vector is bounded by the delta byte count)

  std::size_t cursor = 0;  // sequential output position
  while (pos < delta.size()) {
    const auto tag = util::get_uvarint(delta, pos);
    if (!tag) throw CorruptDelta("delta: bad instruction tag");
    const auto len = static_cast<std::size_t>(*tag >> 1);
    if (len > p.target_size - cursor) {
      throw CorruptDelta("delta: output exceeds target size");
    }
    if ((*tag & 1) != 0) {  // COPY
      const auto addr = util::get_uvarint(delta, pos);
      if (!addr) throw CorruptDelta("delta: bad copy address");
      if (*addr >= p.base_size) {
        // Superstring address: copy from the target's own prefix. The read
        // may run past the current frontier into the instruction's own
        // output (run-like overlap); apply() resolves that with a forward
        // byte loop and kCopyTarget keeps the same semantics.
        if (*addr - p.base_size > static_cast<std::uint64_t>(p.target_size)) {
          throw CorruptDelta("delta: self-copy past output frontier");
        }
        const auto taddr = static_cast<std::size_t>(*addr) - p.base_size;
        if (len > 0 && taddr >= cursor) {
          throw CorruptDelta("delta: self-copy past output frontier");
        }
        if (len > 0) {
          p.insts.push_back(Inst{OpKind::kCopyTarget, len, cursor, taddr, 0});
        }
      } else {
        const auto baddr = static_cast<std::size_t>(*addr);
        if (len > p.base_size - baddr) throw CorruptDelta("delta: copy out of range");
        if (len > 0) {
          p.insts.push_back(Inst{OpKind::kCopyBase, len, cursor, baddr, 0});
        }
      }
    } else {  // ADD
      if (len > delta.size() - pos) throw CorruptDelta("delta: add out of range");
      if (len > 0) {
        p.insts.push_back(Inst{OpKind::kAdd, len, cursor, 0, p.data.size()});
        util::append(p.data, delta.subspan(pos, len));
      }
      pos += len;
    }
    cursor += len;
  }
  if (cursor != p.target_size) throw CorruptDelta("delta: target size mismatch");
  return p;
}

Program lift_cbdp(util::BytesView delta) {
  std::size_t pos = 4;  // past magic, validated by the caller
  Program p;
  p.base_size = get_bounded(delta, pos, kMaxDecodeTargetSize, "base size");
  p.target_size = get_bounded(delta, pos, kMaxDecodeTargetSize, "target size");
  p.base_crc = get_u32le(delta, pos);
  p.target_crc = get_u32le(delta, pos);
  p.scratch_bytes = get_bounded(delta, pos, kMaxInPlaceScratch, "scratch size");
  // The shortest instruction is 3 bytes (op, len, write_off), so a count
  // above remaining/3 is structurally impossible — rejected before the
  // reserve below can amplify it into an allocation.
  const std::size_t n_insts =
      get_bounded(delta, pos, (delta.size() - pos) / 3 + 1, "instruction count");
  p.insts.reserve(n_insts);

  std::size_t written = 0;  // target bytes produced (spills excluded)
  for (std::size_t i = 0; i < n_insts; ++i) {
    if (pos >= delta.size()) throw CorruptDelta("ir: truncated instruction");
    const std::uint8_t op_byte = delta[pos++];
    // Op byte 1 is unassigned (see OpKind).
    if (op_byte == 1 || op_byte > static_cast<std::uint8_t>(OpKind::kCopyScratch)) {
      throw CorruptDelta("ir: bad opcode");
    }
    Inst inst;
    inst.op = static_cast<OpKind>(op_byte);
    inst.len = get_bounded(delta, pos, kMaxDecodeTargetSize, "instruction length");
    inst.write_off = get_bounded(delta, pos, kMaxDecodeTargetSize, "write offset");
    switch (inst.op) {
      case OpKind::kAdd:
        if (inst.len > delta.size() - pos) throw CorruptDelta("ir: add out of range");
        inst.data_off = p.data.size();
        util::append(p.data, delta.subspan(pos, inst.len));
        pos += inst.len;
        break;
      case OpKind::kCopyBase:
      case OpKind::kCopyTarget:
      case OpKind::kSpill:
      case OpKind::kCopyScratch:
        inst.read_off = get_bounded(delta, pos, kMaxDecodeTargetSize, "read offset");
        break;
    }
    // Structural bounds; whether the program is an exactly-once partition
    // of the target is the verifier's concern.
    switch (inst.op) {
      case OpKind::kCopyBase:
        if (inst.len > p.base_size || inst.read_off > p.base_size - inst.len) {
          throw CorruptDelta("ir: base copy out of range");
        }
        break;
      case OpKind::kCopyTarget:
        if (inst.len > p.target_size || inst.read_off > p.target_size - inst.len) {
          throw CorruptDelta("ir: target copy out of range");
        }
        break;
      case OpKind::kSpill:
        if (inst.len > p.base_size || inst.read_off > p.base_size - inst.len) {
          throw CorruptDelta("ir: spill read out of range");
        }
        if (inst.len > p.scratch_bytes || inst.write_off > p.scratch_bytes - inst.len) {
          throw CorruptDelta("ir: spill write out of range");
        }
        break;
      case OpKind::kCopyScratch:
        if (inst.len > p.scratch_bytes || inst.read_off > p.scratch_bytes - inst.len) {
          throw CorruptDelta("ir: scratch read out of range");
        }
        break;
      case OpKind::kAdd:
        break;
    }
    if (inst.op != OpKind::kSpill) {
      if (inst.len > p.target_size - inst.write_off ||
          inst.len > p.target_size - written) {
        throw CorruptDelta("ir: output exceeds target size");
      }
      written += inst.len;
    }
    p.insts.push_back(inst);
  }
  if (pos != delta.size()) throw CorruptDelta("ir: trailing bytes");
  if (written != p.target_size) throw CorruptDelta("ir: target size mismatch");
  return p;
}

}  // namespace

std::size_t Program::bytes_written() const {
  std::size_t written = 0;
  for (const Inst& inst : insts) {
    if (inst.op != OpKind::kSpill) written += inst.len;
  }
  return written;
}

DeltaFormat detect_format(util::BytesView delta) {
  if (delta.size() >= 4) {
    const auto magic = util::as_string_view(delta.subspan(0, 4));
    if (magic == "CBD1") return DeltaFormat::kCbd1;
    if (magic == "CBDP") return DeltaFormat::kCbdp;
  }
  throw CorruptDelta("ir: unknown delta magic");
}

Program lift(util::BytesView delta) {
  switch (detect_format(delta)) {
    case DeltaFormat::kCbd1:
      return lift_cbd1(delta);
    case DeltaFormat::kCbdp:
      return lift_cbdp(delta);
  }
  throw CorruptDelta("ir: unknown delta magic");  // unreachable
}

util::Bytes lower(const Program& program) {
  if (program.scratch_bytes > kMaxInPlaceScratch) {
    throw std::invalid_argument("ir: program scratch demand exceeds cap");
  }
  util::Bytes out;
  out.reserve(32 + program.data.size() + program.insts.size() * 6);
  util::append(out, std::string_view("CBDP"));
  util::put_uvarint(out, program.base_size);
  util::put_uvarint(out, program.target_size);
  put_u32le(out, program.base_crc);
  put_u32le(out, program.target_crc);
  util::put_uvarint(out, program.scratch_bytes);
  util::put_uvarint(out, program.insts.size());
  for (const Inst& inst : program.insts) {
    out.push_back(static_cast<std::uint8_t>(inst.op));
    util::put_uvarint(out, inst.len);
    util::put_uvarint(out, inst.write_off);
    switch (inst.op) {
      case OpKind::kAdd:
        CBDE_EXPECT(inst.data_off + inst.len <= program.data.size());
        util::append(out,
                     util::as_view(program.data).subspan(inst.data_off, inst.len));
        break;
      case OpKind::kCopyBase:
      case OpKind::kCopyTarget:
      case OpKind::kSpill:
      case OpKind::kCopyScratch:
        util::put_uvarint(out, inst.read_off);
        break;
    }
  }
  CBDE_ENSURE(out.size() >= 16);
  return out;
}

util::Bytes execute(const Program& program, util::BytesView base) {
  CBDE_EXPECT(base.size() <= kMaxDecodeTargetSize);
  if (program.base_size != base.size() || program.base_crc != util::crc32(base)) {
    throw CorruptDelta("ir: base-file mismatch");
  }
  if (program.scratch_bytes > kMaxInPlaceScratch) {
    throw CorruptDelta("ir: program scratch demand exceeds cap");
  }
  util::Bytes out(program.target_size, 0);
  util::Bytes scratch(program.scratch_bytes, 0);
  for (const Inst& inst : program.insts) {
    // Re-validate bounds so execute() is memory-safe on hand-built programs
    // that never went through lift().
    if (inst.op != OpKind::kSpill &&
        (inst.len > out.size() || inst.write_off > out.size() - inst.len)) {
      throw CorruptDelta("ir: write out of range");
    }
    switch (inst.op) {
      case OpKind::kAdd:
        if (inst.len > program.data.size() ||
            inst.data_off > program.data.size() - inst.len) {
          throw CorruptDelta("ir: add data out of range");
        }
        if (inst.len > 0) {
          std::memcpy(out.data() + inst.write_off, program.data.data() + inst.data_off,
                      inst.len);
        }
        break;
      case OpKind::kCopyBase:
        if (inst.len > base.size() || inst.read_off > base.size() - inst.len) {
          throw CorruptDelta("ir: base copy out of range");
        }
        if (inst.len > 0) {
          std::memcpy(out.data() + inst.write_off, base.data() + inst.read_off,
                      inst.len);
        }
        break;
      case OpKind::kCopyTarget:
        if (inst.len > out.size() || inst.read_off > out.size() - inst.len) {
          throw CorruptDelta("ir: target copy out of range");
        }
        if (inst.read_off < inst.write_off &&
            inst.write_off < inst.read_off + inst.len) {
          // Overlapping run-like copy: forward byte loop, reads trail writes.
          for (std::size_t i = 0; i < inst.len; ++i) {
            out[inst.write_off + i] = out[inst.read_off + i];
          }
        } else if (inst.len > 0) {
          std::memmove(out.data() + inst.write_off, out.data() + inst.read_off,
                       inst.len);
        }
        break;
      case OpKind::kSpill:
        if (inst.len > base.size() || inst.read_off > base.size() - inst.len) {
          throw CorruptDelta("ir: spill read out of range");
        }
        if (inst.len > scratch.size() || inst.write_off > scratch.size() - inst.len) {
          throw CorruptDelta("ir: spill write out of range");
        }
        if (inst.len > 0) {
          std::memcpy(scratch.data() + inst.write_off, base.data() + inst.read_off,
                      inst.len);
        }
        break;
      case OpKind::kCopyScratch:
        if (inst.len > scratch.size() || inst.read_off > scratch.size() - inst.len) {
          throw CorruptDelta("ir: scratch read out of range");
        }
        if (inst.len > 0) {
          std::memcpy(out.data() + inst.write_off, scratch.data() + inst.read_off,
                      inst.len);
        }
        break;
    }
  }
  if (util::crc32(util::as_view(out)) != program.target_crc) {
    throw CorruptDelta("ir: target checksum mismatch");
  }
  CBDE_ENSURE(out.size() == program.target_size);
  return out;
}

}  // namespace cbde::delta
