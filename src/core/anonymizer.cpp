#include "core/anonymizer.hpp"

#include "util/contracts.hpp"

namespace cbde::core {
namespace {

util::Bytes remove_uncommon_chunks(util::BytesView base,
                                   const std::vector<std::uint32_t>& counters,
                                   std::size_t min_common) {
  if (min_common == 0) return util::Bytes(base.begin(), base.end());  // M=0: no privacy
  util::Bytes out;
  out.reserve(base.size());
  const std::size_t full_chunks = base.size() / delta::kAnonChunkSize;
  for (std::size_t c = 0; c < full_chunks; ++c) {
    if (counters[c] >= min_common) {
      const auto off = c * delta::kAnonChunkSize;
      util::append(out, base.subspan(off, delta::kAnonChunkSize));
    }
  }
  // The trailing partial chunk (if any) is never marked by the matcher's
  // full-containment rule, so it is dropped whenever M >= 1.
  return out;
}

}  // namespace

Anonymizer::Anonymizer(AnonymizerConfig config) : config_(config) {
  CBDE_EXPECT(config_.required_docs >= 1);
  CBDE_EXPECT(config_.min_common <= config_.required_docs);
}

void Anonymizer::begin(util::Bytes base, std::uint64_t owner_user) {
  begin(std::make_shared<const util::Bytes>(std::move(base)), owner_user);
}

void Anonymizer::begin(std::shared_ptr<const util::Bytes> base,
                       std::uint64_t owner_user) {
  encoder_ = std::make_unique<delta::Encoder>(std::move(base));
  owner_ = owner_user;
  counters_.assign(
      (encoder_->base().size() + delta::kAnonChunkSize - 1) / delta::kAnonChunkSize, 0);
  users_.clear();
  in_progress_ = true;
  if (instr_.begins != nullptr) instr_.begins->inc();
}

bool Anonymizer::observe(std::uint64_t user_id, util::BytesView doc) {
  if (!in_progress_ || ready()) return false;
  if (user_id == owner_ || users_.contains(user_id)) return false;
  users_.insert(user_id);
  if (instr_.docs_observed != nullptr) instr_.docs_observed->inc();
  const std::vector<bool> used = encoder_->coverage(doc);
  CBDE_ASSERT(used.size() == counters_.size());
  for (std::size_t c = 0; c < counters_.size(); ++c) {
    if (used[c]) ++counters_[c];
  }
  return true;
}

util::Bytes Anonymizer::finalize() {
  CBDE_EXPECT(ready());
  in_progress_ = false;
  util::Bytes out = remove_uncommon_chunks(util::as_view(encoder_->base()), counters_,
                                           config_.min_common);
  encoder_.reset();
  counters_.clear();
  users_.clear();
  return out;
}

util::Bytes anonymize_against(util::BytesView base, const std::vector<util::Bytes>& docs,
                              std::size_t min_common) {
  std::vector<std::uint32_t> counters(
      (base.size() + delta::kAnonChunkSize - 1) / delta::kAnonChunkSize, 0);
  const delta::Encoder encoder(util::Bytes(base.begin(), base.end()));
  for (const auto& doc : docs) {
    const std::vector<bool> used = encoder.coverage(util::as_view(doc));
    for (std::size_t c = 0; c < counters.size(); ++c) {
      if (used[c]) ++counters[c];
    }
  }
  return remove_uncommon_chunks(base, counters, min_common);
}

}  // namespace cbde::core
