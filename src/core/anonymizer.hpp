// Base-file anonymization (paper §V).
//
// A class base-file is distributed to many clients, so private information
// (credit card numbers, session tokens) must be removed first. The paper's
// mechanism: delta-encode the base-file against N documents from N distinct
// users, count for each 4-byte chunk of the base-file how many of those
// documents shared it, and keep only chunks common with at least M of them
// (M = 0 no privacy, M = 1 the basic scheme, rule of thumb N >= 2M).
//
// The chunk commonality signal comes straight from the transmit encoder's
// COPY coverage (delta::EncodeResult::chunk_used): the same differ that
// writes the class's deltas decides which base chunks are common.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

#include "delta/delta.hpp"
#include "obs/metrics_registry.hpp"
#include "util/bytes.hpp"

namespace cbde::core {

struct AnonymizerConfig {
  std::size_t min_common = 2;    ///< M — chunk kept if common with >= M docs
  std::size_t required_docs = 5; ///< N — documents (distinct users) to observe
};

/// Shared registry counters (per-class anonymizers all point at the owning
/// DeltaServer's handles, so counts aggregate). All-null (default) = no-op.
struct AnonymizerInstruments {
  obs::Counter* begins = nullptr;         ///< anonymization processes started
  obs::Counter* docs_observed = nullptr;  ///< documents counted toward N
};

class Anonymizer {
 public:
  explicit Anonymizer(AnonymizerConfig config);

  /// Start anonymizing `base`, produced for/by `owner_user` (whose own
  /// documents must not vouch for the base's chunks).
  void begin(util::Bytes base, std::uint64_t owner_user);

  /// Shared-base overload: aliases the caller's buffer (a refcount bump)
  /// instead of copying it, so starting a publication round from the
  /// working encoder's base costs no document copy.
  void begin(std::shared_ptr<const util::Bytes> base, std::uint64_t owner_user);

  /// True between begin() and finalize().
  bool in_progress() const { return in_progress_; }

  /// True once N documents from distinct non-owner users have been observed.
  bool ready() const { return in_progress_ && users_.size() >= config_.required_docs; }

  /// Feed a document. Ignored unless in progress, from a non-owner user not
  /// yet counted. Returns true if the document was counted.
  bool observe(std::uint64_t user_id, util::BytesView doc);

  /// Produce the anonymized base-file: chunks with a commonality counter
  /// below M are removed (including the sub-chunk tail, which can never be
  /// vouched for). Requires ready(); ends the process.
  util::Bytes finalize();

  std::size_t users_observed() const { return users_.size(); }
  void set_instruments(const AnonymizerInstruments& instr) { instr_ = instr; }
  const util::Bytes& pending_base() const;
  /// Bytes of the pending base's encoder index; 0 when not in progress.
  std::size_t index_bytes() const { return encoder_ ? encoder_->index_bytes() : 0; }
  const std::vector<std::uint32_t>& counters() const { return counters_; }
  const AnonymizerConfig& config() const { return config_; }

 private:
  AnonymizerConfig config_;
  bool in_progress_ = false;
  /// Owns the pending base and its prebuilt match index: begin() pays the
  /// index build once, the N observe() encodes reuse it.
  std::unique_ptr<delta::Encoder> encoder_;
  std::uint64_t owner_ = 0;
  std::vector<std::uint32_t> counters_;
  std::unordered_set<std::uint64_t> users_;
  AnonymizerInstruments instr_;
};

/// Standalone form of the §V algorithm: anonymize `base` against `docs`
/// (assumed to come from distinct users), keeping chunks common with at
/// least `min_common` of them.
util::Bytes anonymize_against(util::BytesView base, const std::vector<util::Bytes>& docs,
                              std::size_t min_common);

}  // namespace cbde::core
