// Deterministic structure-aware mutation fuzzing, shared by every decoder
// target in fuzz_main.cpp.
//
// This is not a coverage-guided fuzzer: it is a seeded, reproducible
// robustness suite cheap enough to run inside ctest on every build. Each
// target owns a corpus of *valid* encoder outputs and asks the Mutator for
// adversarial variants; the decode callback must either succeed or throw
// the decoder's typed cbde:: error. Anything else — a crash, a sanitizer
// report, std::bad_alloc from an unchecked allocation, an out_of_range from
// a missed bound, a hang — is a failed run. The same seed always replays
// the same mutation sequence, so a failure report (target, seed, iteration)
// is a complete reproducer.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cbde::fuzz {

/// Byte-level mutation engine. Operations are weighted toward the regions
/// and encodings our formats actually use: header bytes (magic, sizes,
/// checksums) get extra attention, and dedicated operators stress varint
/// continuation bits, truncation, and cross-corpus splicing.
class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  util::Rng& rng() { return rng_; }

  /// Produce a mutated copy of `input`. `donor` (possibly empty) supplies
  /// bytes for splice operations — typically another valid corpus entry, so
  /// spliced sections are plausible rather than uniformly random.
  util::Bytes mutate(util::BytesView input, util::BytesView donor) {
    util::Bytes out(input.begin(), input.end());
    const std::size_t ops = 1 + rng_.next_below(4);
    for (std::size_t i = 0; i < ops; ++i) apply_one(out, donor);
    return out;
  }

 private:
  void apply_one(util::Bytes& buf, util::BytesView donor) {
    switch (rng_.next_below(11)) {
      case 0: {  // single bit flip
        if (buf.empty()) return;
        buf[pick(buf.size())] ^= static_cast<std::uint8_t>(1u << rng_.next_below(8));
        return;
      }
      case 1: {  // random byte overwrite
        if (buf.empty()) return;
        buf[pick(buf.size())] = rand_byte();
        return;
      }
      case 2: {  // varint abuse: run of 0xFF / 0x80 continuation bytes
        if (buf.empty()) return;
        const std::size_t pos = pick(buf.size());
        const std::size_t len = std::min<std::size_t>(1 + rng_.next_below(12), buf.size() - pos);
        const std::uint8_t fill = rng_.next_below(2) ? 0xFF : 0x80;
        for (std::size_t i = 0; i < len; ++i) buf[pos + i] = fill;
        return;
      }
      case 3:  // truncate
        buf.resize(rng_.next_below(buf.size() + 1));
        return;
      case 4: {  // delete a slice
        if (buf.empty()) return;
        const std::size_t from = pick(buf.size());
        const std::size_t len = 1 + rng_.next_below(std::min<std::size_t>(buf.size() - from, 64));
        buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(from),
                  buf.begin() + static_cast<std::ptrdiff_t>(from + len));
        return;
      }
      case 5: {  // insert random bytes
        const std::size_t at = rng_.next_below(buf.size() + 1);
        const std::size_t len = 1 + rng_.next_below(32);
        util::Bytes noise(len);
        for (auto& b : noise) b = rand_byte();
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), noise.begin(), noise.end());
        return;
      }
      case 6: {  // duplicate a slice (stresses instruction streams)
        if (buf.empty()) return;
        const std::size_t from = pick(buf.size());
        const std::size_t len = 1 + rng_.next_below(std::min<std::size_t>(buf.size() - from, 64));
        const util::Bytes slice(buf.begin() + static_cast<std::ptrdiff_t>(from),
                                buf.begin() + static_cast<std::ptrdiff_t>(from + len));
        const std::size_t at = rng_.next_below(buf.size() + 1);
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), slice.begin(), slice.end());
        return;
      }
      case 7: {  // splice from the donor corpus entry
        if (donor.empty() || buf.empty()) return;
        const std::size_t dfrom = pick(donor.size());
        const std::size_t dlen = 1 + rng_.next_below(std::min<std::size_t>(donor.size() - dfrom, 128));
        const std::size_t at = pick(buf.size());
        const std::size_t replace = rng_.next_below(std::min<std::size_t>(buf.size() - at, dlen) + 1);
        buf.erase(buf.begin() + static_cast<std::ptrdiff_t>(at),
                  buf.begin() + static_cast<std::ptrdiff_t>(at + replace));
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), donor.begin() + static_cast<std::ptrdiff_t>(dfrom),
                   donor.begin() + static_cast<std::ptrdiff_t>(dfrom + dlen));
        return;
      }
      case 8: {  // header-focused tweak (magic, sizes, crc live up front)
        if (buf.empty()) return;
        const std::size_t pos = rng_.next_below(std::min<std::size_t>(buf.size(), 24));
        buf[pos] = rand_byte();
        return;
      }
      case 9: {  // byte swap at distance (re-orders sections / fields)
        if (buf.size() < 2) return;
        std::swap(buf[pick(buf.size())], buf[pick(buf.size())]);
        return;
      }
      default:  // arithmetic nudge: +-1..4 on one byte (off-by-one lengths)
        if (buf.empty()) return;
        buf[pick(buf.size())] += static_cast<std::uint8_t>(rng_.next_int(-4, 4));
        return;
    }
  }

  std::size_t pick(std::size_t size) { return rng_.next_below(size); }
  std::uint8_t rand_byte() { return static_cast<std::uint8_t>(rng_.next_below(256)); }

  util::Rng rng_;
};

struct TargetStats {
  std::size_t accepted = 0;  ///< decoder succeeded on the mutated input
  std::size_t rejected = 0;  ///< decoder threw its typed cbde:: error
};

/// Drive `decode` over `iters` mutations of `corpus`. `decode(bytes)` must
/// return true (decoded) or false (rejected via the decoder's own typed
/// error, caught inside the callback). Any exception escaping the callback
/// fails the target with a reproducer line and returns nothing; otherwise
/// the verdict counts are printed and returned. Every tenth input is raw
/// noise rather than a mutated corpus entry, so the cold path (bad magic,
/// absurd header) stays covered too.
template <typename DecodeFn>
std::optional<TargetStats> run_target(const char* name, std::uint64_t seed, std::size_t iters,
                                      const std::vector<util::Bytes>& corpus,
                                      DecodeFn&& decode) {
  Mutator mut(seed);
  TargetStats stats;
  for (std::size_t i = 0; i < iters; ++i) {
    util::Bytes input;
    if (i % 10 == 9 || corpus.empty()) {
      input.resize(mut.rng().next_below(256));
      for (auto& b : input) b = static_cast<std::uint8_t>(mut.rng().next_below(256));
    } else {
      const auto& entry = corpus[i % corpus.size()];
      const auto& donor = corpus[mut.rng().next_below(corpus.size())];
      input = mut.mutate(util::as_view(entry), util::as_view(donor));
    }
    try {
      if (decode(util::as_view(input))) {
        ++stats.accepted;
      } else {
        ++stats.rejected;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "FUZZ FAILURE target=%s seed=0x%llx iteration=%zu input_size=%zu\n"
                   "  unexpected exception: %s\n  input prefix:",
                   name, static_cast<unsigned long long>(seed), i, input.size(), e.what());
      for (std::size_t b = 0; b < input.size() && b < 48; ++b) {
        std::fprintf(stderr, " %02x", input[b]);
      }
      std::fprintf(stderr, "\n");
      return std::nullopt;
    }
  }
  std::printf("fuzz %-12s %8zu iterations: %zu accepted, %zu rejected\n", name, iters,
              stats.accepted, stats.rejected);
  return stats;
}

}  // namespace cbde::fuzz
