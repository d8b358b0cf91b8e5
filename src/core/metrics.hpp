// Byte-exact accounting for the delta-encoding pipeline (Table II metrics).
#pragma once

#include <cstdint>
#include <limits>

#include "util/stats.hpp"

namespace cbde::core {

struct PipelineMetrics {
  std::uint64_t requests = 0;
  std::uint64_t direct_responses = 0;  ///< served as the full document
  std::uint64_t delta_responses = 0;   ///< served as a delta

  /// Bytes the server would have sent without the scheme (sum of document
  /// sizes) — the paper's "Direct KB".
  std::uint64_t direct_bytes = 0;
  /// Response bytes actually sent (compressed deltas, or full documents for
  /// direct responses) — the paper's "Delta KB".
  std::uint64_t wire_bytes = 0;
  /// Base-file distribution bytes charged to the server (proxy-cache hits
  /// are accounted separately by the pipeline).
  std::uint64_t base_wire_bytes = 0;

  std::uint64_t group_rebases = 0;
  std::uint64_t basic_rebases = 0;
  std::uint64_t anonymizations_completed = 0;

  /// Fraction of outbound bytes saved vs. serving everything directly:
  /// 1 - sent/direct, where sent = wire_bytes + base_wire_bytes.
  ///
  /// Zero-denominator convention (shared with reduction_factor(), which is
  /// the same ratio inverted, so the two can never disagree about whether a
  /// run was a win):
  ///   * direct == 0 and sent == 0  ->  0.0   (no traffic, neutral)
  ///   * direct == 0 and sent  > 0  -> -inf   (pure overhead, e.g. a run
  ///                                           that only distributed bases)
  ///   * direct  > 0 and sent == 0  ->  1.0   (everything saved)
  double savings() const {
    const std::uint64_t sent = wire_bytes + base_wire_bytes;
    if (direct_bytes == 0) {
      return sent == 0 ? 0.0 : -std::numeric_limits<double>::infinity();
    }
    return 1.0 - static_cast<double>(sent) / static_cast<double>(direct_bytes);
  }

  /// Mean compression factor: direct bytes / sent bytes. Zero-denominator
  /// convention mirrors savings():
  ///   * direct == 0 and sent == 0  ->  1.0   (neutral)
  ///   * direct == 0 and sent  > 0  ->  0.0   (pure overhead)
  ///   * direct  > 0 and sent == 0  -> +inf   (everything saved)
  double reduction_factor() const {
    const std::uint64_t sent = wire_bytes + base_wire_bytes;
    if (sent == 0) {
      return direct_bytes == 0 ? 1.0 : std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(direct_bytes) / static_cast<double>(sent);
  }

  /// Field-wise sum, used to aggregate per-shard ledgers.
  ///
  /// Cross-shard consistency convention (the sharded-server analogue of the
  /// zero-denominator convention above): every counter of one request is
  /// committed under a single shard's mutex, so a per-shard snapshot taken
  /// under that mutex satisfies all conservation identities (requests ==
  /// direct + delta responses, wire <= direct, ...). A merged snapshot is a
  /// sum of such per-shard-consistent snapshots taken one shard at a time in
  /// ascending shard order — requests that commit on an already-visited
  /// shard during the walk are simply not in this snapshot. Every identity
  /// that holds per shard therefore holds for the merge; what is NOT
  /// guaranteed is that the merge corresponds to one global instant.
  void merge(const PipelineMetrics& other) {
    requests += other.requests;
    direct_responses += other.direct_responses;
    delta_responses += other.delta_responses;
    direct_bytes += other.direct_bytes;
    wire_bytes += other.wire_bytes;
    base_wire_bytes += other.base_wire_bytes;
    group_rebases += other.group_rebases;
    basic_rebases += other.basic_rebases;
    anonymizations_completed += other.anonymizations_completed;
  }
};

}  // namespace cbde::core
