#include "delta/inplace.hpp"

#include <algorithm>
#include <cstring>
#include <queue>
#include <set>

#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace cbde::delta {
namespace {

/// Edge-count ceiling for the conflict digraph. Honest encoder output is
/// near-linear (reads rarely straddle more than a few writer intervals),
/// but a crafted CBDP program can aim one wide read interval across
/// hundreds of thousands of one-byte writers and go quadratic; the analysis
/// rejects such programs instead of materializing their graphs.
constexpr std::size_t kMaxCrwiEdges = std::size_t{1} << 22;

/// One target- (or scratch-) writing interval, sorted by offset. The
/// partition property makes the intervals disjoint, so offset order is also
/// end order and any cell maps to at most one writer.
struct Writer {
  std::size_t off = 0;
  std::size_t len = 0;
  std::uint32_t idx = 0;
};

std::vector<Writer> sorted_writers(const Program& p, bool spills) {
  std::vector<Writer> writers;
  writers.reserve(p.insts.size());
  for (std::size_t i = 0; i < p.insts.size(); ++i) {
    const Inst& inst = p.insts[i];
    if ((inst.op == OpKind::kSpill) != spills || inst.len == 0) continue;
    writers.push_back(Writer{inst.write_off, inst.len, static_cast<std::uint32_t>(i)});
  }
  std::sort(writers.begin(), writers.end(),
            [](const Writer& a, const Writer& b) { return a.off < b.off; });
  return writers;
}

/// First writer whose interval ends past `cell` (candidates for overlapping
/// any read interval starting at `cell`). Disjointness makes end offsets
/// sorted too, so this is a plain partition point.
std::vector<Writer>::const_iterator first_ending_after(const std::vector<Writer>& writers,
                                                       std::size_t cell) {
  return std::partition_point(writers.begin(), writers.end(), [cell](const Writer& w) {
    return w.off + w.len <= cell;
  });
}

void add_conflict_edge(CrwiGraph& g, std::uint32_t from, std::uint32_t to) {
  g.conflict_adj[from].push_back(to);
  if (++g.edges > kMaxCrwiEdges) {
    throw CorruptDelta("delta ir: conflict graph too dense");
  }
}

void add_producer_edge(CrwiGraph& g, std::uint32_t from, std::uint32_t to) {
  g.producer_adj[from].push_back(to);
  if (++g.edges > kMaxCrwiEdges) {
    throw CorruptDelta("delta ir: conflict graph too dense");
  }
}

/// Visit the live successors of v: producer edges always, conflict edges
/// only while v has not been neutered (spilled / ADD-converted).
template <typename Fn>
void for_each_succ(const CrwiGraph& g, const std::vector<bool>& neutered,
                   std::uint32_t v, Fn&& fn) {
  if (!neutered[v]) {
    for (const std::uint32_t w : g.conflict_adj[v]) fn(w);
  }
  for (const std::uint32_t w : g.producer_adj[v]) fn(w);
}

/// Cyclic strongly connected components of the digraph under a neuter mask
/// (a neutered node keeps its producer edges, loses its conflict edges —
/// the residual graph cycle-breaking leaves behind). Iterative Tarjan:
/// delta programs are untrusted, so no recursion on their instruction
/// count. Self-loops cannot exist (build_crwi never adds u -> u), so every
/// returned component of size >= 2 is a genuine cycle; singletons are
/// omitted.
std::vector<std::vector<std::uint32_t>> cyclic_sccs(const CrwiGraph& g,
                                                    const std::vector<bool>& neutered) {
  const std::size_t n = g.conflict_adj.size();
  std::vector<std::int64_t> order(n, -1);
  std::vector<std::int64_t> low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::uint32_t> stack;
  stack.reserve(n);  // each node enters the Tarjan stack exactly once
  struct Frame {
    std::uint32_t v;
    std::size_t child;  // index into the concatenated successor list
  };
  std::vector<Frame> frames;
  frames.reserve(n);  // DFS depth is bounded by the node count
  std::vector<std::vector<std::uint32_t>> sccs;
  std::int64_t next_order = 0;

  auto succ_count = [&](std::uint32_t v) {
    return (neutered[v] ? 0 : g.conflict_adj[v].size()) + g.producer_adj[v].size();
  };
  auto succ_at = [&](std::uint32_t v, std::size_t k) {
    if (!neutered[v] && k < g.conflict_adj[v].size()) return g.conflict_adj[v][k];
    return g.producer_adj[v][k - (neutered[v] ? 0 : g.conflict_adj[v].size())];
  };

  for (std::uint32_t root = 0; root < n; ++root) {
    if (order[root] != -1) continue;
    order[root] = low[root] = next_order++;
    stack.push_back(root);
    on_stack[root] = true;
    frames.push_back(Frame{root, 0});
    while (!frames.empty()) {
      const std::uint32_t v = frames.back().v;
      if (frames.back().child < succ_count(v)) {
        const std::uint32_t w = succ_at(v, frames.back().child++);
        if (order[w] == -1) {
          order[w] = low[w] = next_order++;
          stack.push_back(w);
          on_stack[w] = true;
          frames.push_back(Frame{w, 0});  // may invalidate frame references
        } else if (on_stack[w]) {
          low[v] = std::min(low[v], order[w]);
        }
      } else {
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().v] = std::min(low[frames.back().v], low[v]);
        }
        if (low[v] == order[v]) {
          std::vector<std::uint32_t> scc;
          while (true) {
            const std::uint32_t w = stack.back();
            stack.pop_back();
            on_stack[w] = false;
            scc.push_back(w);  // lint: growth-ok component size unknown until popped
            if (w == v) break;
          }
          // lint: growth-ok cyclic components are rare; most calls return none
          if (scc.size() >= 2) sccs.push_back(std::move(scc));
        }
      }
    }
  }
  return sccs;
}

/// The greedy cycle-break: repeatedly find cyclic SCCs and neuter the
/// cheapest base-copy in each (min length, instruction index as the
/// deterministic tie-break) until the residual graph is acyclic. `on_break`
/// receives each chosen node. The verifier (summing lengths into the
/// scratch bound) and the transformer (rewriting the instructions) make
/// identical choices round by round — neutering here models exactly the
/// edges a spill or ADD-conversion deletes — so the transformer's scratch
/// use can never exceed the verifier's reported bound.
template <typename OnBreak>
void break_cycles(const Program& p, const CrwiGraph& g, std::size_t* cycle_count,
                  OnBreak&& on_break) {
  std::vector<bool> neutered(p.insts.size(), false);
  bool first_round = true;
  while (true) {
    const auto sccs = cyclic_sccs(g, neutered);
    if (first_round && cycle_count != nullptr) *cycle_count = sccs.size();
    first_round = false;
    if (sccs.empty()) break;
    for (const auto& scc : sccs) {
      std::uint32_t best = UINT32_MAX;
      for (const std::uint32_t i : scc) {
        if (p.insts[i].op != OpKind::kCopyBase || neutered[i]) continue;
        if (best == UINT32_MAX || p.insts[i].len < p.insts[best].len ||
            (p.insts[i].len == p.insts[best].len && i < best)) {
          best = i;
        }
      }
      if (best == UINT32_MAX) {
        // Only target-copies reading each other's output: the target is
        // defined circularly and no execution order exists. Our encoders
        // cannot emit this; only a crafted CBDP program reaches it.
        throw CorruptDelta("delta ir: conflict cycle without a base copy");
      }
      neutered[best] = true;
      on_break(best);
    }
  }
}

}  // namespace

CrwiGraph build_crwi(const Program& p) {
  const std::size_t n = p.insts.size();
  if (n > UINT32_MAX) throw CorruptDelta("delta ir: too many instructions");
  CrwiGraph g;
  g.conflict_adj.assign(n, {});
  g.producer_adj.assign(n, {});

  // Partition check: target write intervals must be disjoint, in-bounds and
  // cover the target exactly (disjoint intervals inside [0, target) whose
  // lengths sum to target necessarily tile it).
  const std::vector<Writer> writers = sorted_writers(p, /*spills=*/false);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < writers.size(); ++i) {
    if (writers[i].len > p.target_size || writers[i].off > p.target_size - writers[i].len) {
      throw CorruptDelta("delta ir: write out of target range");
    }
    if (i > 0 && writers[i - 1].off + writers[i - 1].len > writers[i].off) {
      throw CorruptDelta("delta ir: overlapping target writes");
    }
    covered += writers[i].len;
  }
  if (covered != p.target_size) {
    throw CorruptDelta("delta ir: writes do not cover the target");
  }

  const std::vector<Writer> spills = sorted_writers(p, /*spills=*/true);
  for (std::size_t i = 0; i < spills.size(); ++i) {
    if (spills[i].len > p.scratch_bytes ||
        spills[i].off > p.scratch_bytes - spills[i].len) {
      throw CorruptDelta("delta ir: spill out of scratch range");
    }
    if (i > 0 && spills[i - 1].off + spills[i - 1].len > spills[i].off) {
      throw CorruptDelta("delta ir: overlapping spill slots");
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const Inst& inst = p.insts[i];
    if (inst.len == 0) continue;
    const auto u = static_cast<std::uint32_t>(i);
    const std::size_t r0 = inst.read_off;
    const std::size_t r1 = inst.read_off + inst.len;
    switch (inst.op) {
      case OpKind::kAdd:
        break;  // no reads
      case OpKind::kCopyBase:
      case OpKind::kSpill: {
        if (inst.len > p.base_size || r0 > p.base_size - inst.len) {
          throw CorruptDelta("delta ir: base read out of range");
        }
        // Type-i conflict edges: u must run before every instruction whose
        // target write clobbers u's base-read interval. A self-overlap
        // (u's own write over its own read) is excluded — execution uses
        // memmove semantics for it.
        for (auto it = first_ending_after(writers, r0);
             it != writers.end() && it->off < r1; ++it) {
          if (it->idx != u) add_conflict_edge(g, u, it->idx);
        }
        break;
      }
      case OpKind::kCopyTarget: {
        if (inst.len > p.target_size || r0 > p.target_size - inst.len) {
          throw CorruptDelta("delta ir: target read out of range");
        }
        const std::size_t w0 = inst.write_off;
        const std::size_t w1 = inst.write_off + inst.len;
        std::size_t external_end = r1;
        if (r0 < w1 && w0 < r1) {  // read/write intervals overlap
          if (r0 >= w0) {
            // The forward byte loop writes cell w0+k before reading r0+k;
            // with r0 >= w0 some cell is read after this very instruction
            // overwrote it, in every execution order.
            throw CorruptDelta("delta ir: backward overlapping target copy");
          }
          external_end = w0;  // cells [w0, r1) are self-produced
        }
        // Type-ii producer edges: whoever writes the externally read cells
        // must run first. The partition gives each cell a unique producer.
        for (auto it = first_ending_after(writers, r0);
             it != writers.end() && it->off < external_end; ++it) {
          if (it->idx != u) add_producer_edge(g, it->idx, u);
        }
        break;
      }
      case OpKind::kCopyScratch: {
        if (inst.len > p.scratch_bytes || r0 > p.scratch_bytes - inst.len) {
          throw CorruptDelta("delta ir: scratch read out of range");
        }
        // Producer edges from the spills that fill [r0, r1); spills need
        // not tile the scratch slot, so coverage is checked cell-range by
        // cell-range.
        std::size_t need = r0;
        for (auto it = first_ending_after(spills, r0);
             it != spills.end() && it->off < r1; ++it) {
          if (it->off > need) break;  // gap
          need = it->off + it->len;
          add_producer_edge(g, it->idx, u);
          if (need >= r1) break;
        }
        if (need < r1) {
          throw CorruptDelta("delta ir: scratch read of unspilled bytes");
        }
        break;
      }
    }
  }
  return g;
}

VerifyResult verify_in_place(const Program& p) {
  const CrwiGraph g = build_crwi(p);
  VerifyResult result;
  result.in_place_safe = true;
  const std::vector<bool> live(p.insts.size(), false);
  for (std::uint32_t u = 0; u < p.insts.size() && result.in_place_safe; ++u) {
    for_each_succ(g, live, u, [&](std::uint32_t v) {
      if (v < u && result.in_place_safe) {
        // u must execute before v but is ordered after it.
        result.in_place_safe = false;
        result.first_conflict = "instruction " + std::to_string(u) +
                                " must execute before instruction " + std::to_string(v);
      }
    });
  }
  result.scratch_bound = p.scratch_bytes;
  break_cycles(p, g, &result.cycles,
               [&](std::uint32_t i) { result.scratch_bound += p.insts[i].len; });
  return result;
}

DeltaLintStats delta_lint(const Program& p, std::size_t wire_size) {
  DeltaLintStats stats;
  stats.instructions = p.insts.size();
  std::vector<std::pair<std::size_t, std::size_t>> reads;  // base-copy intervals
  reads.reserve(p.insts.size());
  std::size_t literal_bytes = 0;
  for (const Inst& inst : p.insts) {
    switch (inst.op) {
      case OpKind::kAdd: {
        ++stats.add_insts;
        literal_bytes += inst.len;
        if (inst.len >= 4) {
          const std::uint8_t first = p.data[inst.data_off];
          bool uniform = true;
          for (std::size_t i = 1; i < inst.len && uniform; ++i) {
            uniform = p.data[inst.data_off + i] == first;
          }
          if (uniform) ++stats.dead_add_runs;
        }
        break;
      }
      case OpKind::kCopyBase:
      case OpKind::kSpill:
        if (inst.op == OpKind::kCopyBase) ++stats.copy_insts;
        if (inst.len > 0) reads.emplace_back(inst.read_off, inst.read_off + inst.len);
        break;
      case OpKind::kCopyTarget:
      case OpKind::kCopyScratch:
        ++stats.copy_insts;
        break;
    }
  }
  // Count overlapping base-read pairs with an end-point sweep: sort by
  // start, keep the active (still-open) ends, every active interval at a
  // new start is one overlapping pair.
  std::sort(reads.begin(), reads.end());
  std::multiset<std::size_t> open_ends;
  for (const auto& [start, end] : reads) {
    while (!open_ends.empty() && *open_ends.begin() <= start) {
      open_ends.erase(open_ends.begin());
    }
    stats.overlapping_copy_pairs += open_ends.size();
    open_ends.insert(end);
  }
  stats.instruction_overhead_bytes =
      wire_size > literal_bytes ? wire_size - literal_bytes : 0;
  return stats;
}

InPlaceInstruments InPlaceInstruments::attach(obs::Obs& obs) {
  InPlaceInstruments ins;
  ins.verified = &obs.registry().counter(
      "cbde_delta_inplace_verified_total",
      "Delta programs that passed the in-place order-safety verifier");
  ins.transformed = &obs.registry().counter(
      "cbde_delta_inplace_transformed_total",
      "Delta programs rewritten (reordered or cycle-broken) by the in-place transformer");
  ins.scratch_bytes = &obs.histogram(
      "cbde_delta_inplace_scratch_bytes",
      "Scratch-slot bytes required per in-place-applied delta program");
  ins.lint_overhead_bytes = &obs.histogram(
      "cbde_delta_lint_overhead_bytes",
      "Instruction-encoding overhead per linted delta: wire bytes minus literal bytes");
  ins.lint_findings = &obs.registry().counter(
      "cbde_delta_lint_findings_total",
      "Delta-lint findings: overlapping base copies plus uniform ADD runs");
  return ins;
}

void InPlaceInstruments::observe_lint(const DeltaLintStats& stats) const {
  if (lint_overhead_bytes != nullptr) {
    lint_overhead_bytes->observe(stats.instruction_overhead_bytes);
  }
  if (lint_findings != nullptr) {
    lint_findings->add(stats.overlapping_copy_pairs + stats.dead_add_runs);
  }
}

TransformResult transform_in_place(const Program& program, util::BytesView base,
                                   const TransformOptions& options,
                                   const InPlaceInstruments* instruments) {
  CBDE_EXPECT(options.max_scratch_bytes <= kMaxInPlaceScratch);
  if (program.base_size != base.size() || program.base_crc != util::crc32(base)) {
    throw CorruptDelta("delta ir: base-file mismatch");
  }

  TransformResult result;
  if (verify_in_place(program).in_place_safe) {
    // Already safe as ordered: ship the original delta bytes untouched.
    result.program = program;
    result.scratch_bytes = program.scratch_bytes;
    return result;
  }

  Program p = program;
  std::size_t scratch_used = p.scratch_bytes;  // existing spill slots stay

  // Cycle breaking: run the exact greedy the verifier's scratch bound
  // models, then rewrite the chosen victims. A spill pair and an ADD both
  // delete precisely the victim's conflict out-edges (its write interval —
  // and with it every producer edge — survives), which is what the
  // neutering in break_cycles() simulates; spilling instead of
  // ADD-converting only trades delta bytes for scratch bytes, never scratch
  // for more scratch, so the emitted program's scratch stays within the
  // verifier's bound.
  std::vector<std::uint32_t> victims;
  {
    const CrwiGraph g = build_crwi(p);
    break_cycles(p, g, nullptr, [&](std::uint32_t i) { victims.push_back(i); });
  }
  for (const std::uint32_t best : victims) {
    const Inst victim = p.insts[best];
    const bool spill = victim.len >= options.add_convert_below &&
                       scratch_used < options.max_scratch_bytes &&
                       victim.len <= options.max_scratch_bytes - scratch_used;
    if (spill) {
      p.insts[best].op = OpKind::kCopyScratch;
      p.insts[best].read_off = scratch_used;
      // lint: growth-ok one spill per broken cycle, bounded by the victim count
      p.insts.push_back(
          Inst{OpKind::kSpill, victim.len, scratch_used, victim.read_off, 0});
      scratch_used += victim.len;
      ++result.spilled_copies;
    } else {
      // A base-copy reproduces base bytes verbatim, so the ADD literal is
      // the read interval itself — no target materialization needed.
      p.insts[best].op = OpKind::kAdd;
      p.insts[best].read_off = 0;
      p.insts[best].data_off = p.data.size();
      util::append(p.data, base.subspan(victim.read_off, victim.len));
      ++result.add_converted_copies;
      result.add_converted_bytes += victim.len;
    }
  }
  p.scratch_bytes = scratch_used;

  // Schedule: Kahn topological order over the rewritten (now acyclic)
  // program. Ready spills go first (they read pristine base bytes and
  // unblock their consumers), then instruction index — fully deterministic.
  const CrwiGraph g = build_crwi(p);
  const std::size_t n = p.insts.size();
  const std::vector<bool> live(n, false);
  std::vector<std::size_t> indegree(n, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    for_each_succ(g, live, u, [&](std::uint32_t v) { ++indegree[v]; });
  }
  using Key = std::pair<int, std::uint32_t>;  // (spill? 0 : 1, index)
  std::priority_queue<Key, std::vector<Key>, std::greater<>> ready;
  auto key_of = [&](std::uint32_t i) {
    return Key{p.insts[i].op == OpKind::kSpill ? 0 : 1, i};
  };
  for (std::uint32_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) ready.push(key_of(i));
  }
  std::vector<Inst> scheduled;
  scheduled.reserve(n);
  while (!ready.empty()) {
    const std::uint32_t i = ready.top().second;
    ready.pop();
    scheduled.push_back(p.insts[i]);
    for_each_succ(g, live, i, [&](std::uint32_t v) {
      if (--indegree[v] == 0) ready.push(key_of(v));
    });
  }
  if (scheduled.size() != n) {
    throw std::logic_error("transform_in_place: cycle survived breaking");
  }
  p.insts = std::move(scheduled);

  result.program = std::move(p);
  result.transformed = true;
  result.scratch_bytes = scratch_used;

  // Postconditions: the output must verify, and must still reconstruct the
  // exact target (execute() checks the crc). Transform runs at publication
  // frequency, not per request — the differential execute is cheap there
  // and turns any scheduling bug into a loud error instead of a corrupt
  // client document.
  if (!verify_in_place(result.program).in_place_safe) {
    throw std::logic_error("transform_in_place: output failed verification");
  }
  (void)execute(result.program, base);
  if (instruments != nullptr && instruments->transformed != nullptr) {
    instruments->transformed->inc();
  }
  return result;
}

void apply_in_place(util::Bytes& buf, util::BytesView delta,
                    const InPlaceInstruments* instruments) {
  // The delta is untrusted; buf holds our own copy of the base.
  CBDE_EXPECT(buf.size() <= kMaxDecodeTargetSize);
  const Program p = lift(delta);
  if (p.base_size != buf.size() || p.base_crc != util::crc32(util::as_view(buf))) {
    throw CorruptDelta("delta: base-file mismatch");
  }
  const VerifyResult verdict = verify_in_place(p);
  if (!verdict.in_place_safe) {
    throw NotInPlaceApplicable("delta: not in-place applicable: " +
                               verdict.first_conflict);
  }
  if (instruments != nullptr) {
    if (instruments->verified != nullptr) instruments->verified->inc();
    if (instruments->scratch_bytes != nullptr) {
      instruments->scratch_bytes->observe(p.scratch_bytes);
    }
  }

  // The buffer holds max(base, target) during execution: reads come from
  // the not-yet-overwritten base cells, writes land at their final target
  // offsets. Every bound below was established by lift() + the verifier.
  buf.resize(std::max(p.base_size, p.target_size));
  util::Bytes scratch(p.scratch_bytes, 0);
  for (const Inst& inst : p.insts) {
    if (inst.len == 0) continue;
    switch (inst.op) {
      case OpKind::kAdd:
        std::memcpy(buf.data() + inst.write_off, p.data.data() + inst.data_off,
                    inst.len);
        break;
      case OpKind::kCopyBase:
        // memmove: the verifier allows a copy's own write to overlap its
        // own read (no earlier writer clobbered it).
        std::memmove(buf.data() + inst.write_off, buf.data() + inst.read_off,
                     inst.len);
        break;
      case OpKind::kCopyTarget:
        if (inst.read_off < inst.write_off &&
            inst.write_off < inst.read_off + inst.len) {
          // Run-like overlap: forward byte loop, reads trail writes.
          for (std::size_t i = 0; i < inst.len; ++i) {
            buf[inst.write_off + i] = buf[inst.read_off + i];
          }
        } else {
          std::memmove(buf.data() + inst.write_off, buf.data() + inst.read_off,
                       inst.len);
        }
        break;
      case OpKind::kSpill:
        std::memcpy(scratch.data() + inst.write_off, buf.data() + inst.read_off,
                    inst.len);
        break;
      case OpKind::kCopyScratch:
        std::memcpy(buf.data() + inst.write_off, scratch.data() + inst.read_off,
                    inst.len);
        break;
    }
  }
  buf.resize(p.target_size);
  if (util::crc32(util::as_view(buf)) != p.target_crc) {
    throw CorruptDelta("delta: target checksum mismatch");
  }
  CBDE_ENSURE(buf.size() == p.target_size);
}

}  // namespace cbde::delta
