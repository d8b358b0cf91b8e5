#include "client/agent.hpp"

#include <stdexcept>

#include "compress/compressor.hpp"
#include "delta/delta.hpp"

namespace cbde::client {

std::optional<std::uint32_t> ClientAgent::base_version(std::uint64_t class_id) const {
  const auto it = bases_.find(class_id);
  if (it == bases_.end()) return std::nullopt;
  return it->second.version;
}

void ClientAgent::store_base(BaseRef ref, util::Bytes base) {
  bases_[ref.class_id] = Slot{ref.version, std::move(base)};
  ++stats_.bases_stored;
}

util::Bytes ClientAgent::reconstruct(BaseRef ref, util::BytesView wire_delta,
                                     bool compressed) {
  const auto it = bases_.find(ref.class_id);
  if (it == bases_.end() || it->second.version != ref.version) {
    ++stats_.reconstruction_failures;
    throw std::invalid_argument("client: no base-file for class/version");
  }
  try {
    const util::Bytes raw =
        compressed ? compress::decompress(wire_delta)
                   : util::Bytes(wire_delta.begin(), wire_delta.end());
    util::Bytes doc = delta::apply(util::as_view(it->second.base), util::as_view(raw));
    ++stats_.deltas_applied;
    stats_.bytes_reconstructed += doc.size();
    return doc;
  } catch (...) {
    ++stats_.reconstruction_failures;
    throw;
  }
}

std::size_t ClientAgent::stored_bytes() const {
  std::size_t total = 0;
  for (const auto& [id, slot] : bases_) total += slot.base.size();
  return total;
}

}  // namespace cbde::client
