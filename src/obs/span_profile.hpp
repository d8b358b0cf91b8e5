// Folding sampled span trees into flame profiles (docs/OBSERVABILITY.md,
// "Span flame profiles").
//
// A TraceContext records one request's span tree (serve -> group/encode/
// compress/commit, plus the pool's queue span). One tree answers "where did
// THIS request go"; a capacity question needs the aggregate: where does
// serve time go across a whole replay, per worker count. SpanProfile folds
// many trees into stack -> self-microseconds totals and exports them two
// ways:
//   * collapsed() — Brendan Gregg collapsed-stack lines
//     ("serve;encode 1234"), the lingua franca of flamegraph.pl and most
//     profile tooling;
//   * speedscope_json()/speedscope_document() — a speedscope "sampled"
//     profile (https://www.speedscope.app/file-format-schema.json), one
//     profile per run so worker counts sit side by side in one document.
//
// Self time is a span's duration minus its closed children's durations,
// clamped at zero (clock jitter can make children sum past the parent).
// Open spans (end_us == 0) contribute no self time but still anchor their
// children's paths.
//
// Not thread-safe: fold on one thread (benches fold after the replay ends).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.hpp"

namespace cbde::obs {

class SpanProfile {
 public:
  /// Fold one trace's span tree into the profile.
  void add(const TraceContext& trace) { add(trace.spans()); }
  /// Same, from raw records (tests build fixed-time trees this way).
  void add(const std::vector<SpanRecord>& spans);

  /// Collapsed-stack lines, one per distinct stack, sorted by stack;
  /// "name;name;... <self_us>\n". Zero-weight stacks are kept — they mark
  /// code paths that executed even when the clock read 0.
  std::string collapsed() const;

  /// A complete single-profile speedscope document.
  std::string speedscope_json(std::string_view profile_name) const;

  /// One speedscope document holding several named profiles (frame table
  /// shared and deduplicated); `profiles` order is preserved.
  static std::string speedscope_document(
      const std::vector<std::pair<std::string, const SpanProfile*>>& profiles);

  /// Distinct stacks folded so far.
  std::size_t stack_count() const { return stacks_.size(); }
  /// Traces folded so far.
  std::uint64_t traces() const { return traces_; }
  /// Total self microseconds across all stacks.
  std::uint64_t total_us() const { return total_us_; }
  bool empty() const { return stacks_.empty(); }

 private:
  /// stack path ("a;b;c") -> accumulated self microseconds. Sorted map keeps
  /// every export deterministic.
  std::map<std::string, std::uint64_t> stacks_;
  std::uint64_t traces_ = 0;
  std::uint64_t total_us_ = 0;
};

}  // namespace cbde::obs
