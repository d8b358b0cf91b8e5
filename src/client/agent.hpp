// Client-side agent: the browser-cache-plus-Javascript (or plug-in) piece of
// the paper's architecture (§VI-C). It stores one base-file per class and
// reconstructs current document snapshots by combining a received delta with
// the locally stored base-file.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "util/bytes.hpp"

namespace cbde::client {

/// Identifies a base-file: which class, and which rebase generation.
struct BaseRef {
  std::uint64_t class_id = 0;
  std::uint32_t version = 0;

  bool operator==(const BaseRef&) const = default;
};

struct AgentStats {
  std::uint64_t deltas_applied = 0;
  std::uint64_t bases_stored = 0;
  std::uint64_t reconstruction_failures = 0;
  std::uint64_t bytes_reconstructed = 0;  ///< document bytes produced locally
};

class ClientAgent {
 public:
  /// Version of the base-file held for `class_id`, if any.
  std::optional<std::uint32_t> base_version(std::uint64_t class_id) const;

  /// Store (or replace) the base-file for a class.
  void store_base(BaseRef ref, util::Bytes base);

  /// Combine a (possibly compressed) delta with the stored base-file.
  /// `compressed` says whether the wire bytes are cbz-compressed.
  /// Throws delta::CorruptDelta / compress::CorruptInput on damage or if no
  /// matching base is stored (std::invalid_argument).
  util::Bytes reconstruct(BaseRef ref, util::BytesView wire_delta, bool compressed);

  std::size_t stored_bases() const { return bases_.size(); }
  std::size_t stored_bytes() const;
  const AgentStats& stats() const { return stats_; }

 private:
  struct Slot {
    std::uint32_t version = 0;
    util::Bytes base;
  };
  std::unordered_map<std::uint64_t, Slot> bases_;
  AgentStats stats_;
};

}  // namespace cbde::client
