#include "core/baselines.hpp"

#include "compress/compressor.hpp"
#include "delta/delta.hpp"

namespace cbde::core {

void TrafficBaseline::process(std::uint64_t user_id, const http::Url& url,
                              util::SimTime now) {
  const auto doc = origin_.document(url, user_id, now);
  if (!doc) return;
  ++counters_.requests;
  counters_.direct_bytes += doc->size();
  counters_.wire_bytes += wire_cost(user_id, url, *doc, now);
}

std::size_t GzipOnlyBaseline::wire_cost(std::uint64_t, const http::Url&,
                                        const util::Bytes& doc, util::SimTime) {
  return std::min(compress::compressed_size(util::as_view(doc)), doc.size());
}

std::size_t HppBaseline::wire_cost(std::uint64_t user_id, const http::Url& url,
                                   const util::Bytes& doc, util::SimTime now) {
  const trace::SiteModel* site = origin_.site(url.host);
  const auto ref = site ? site->resolve(url) : std::nullopt;
  if (!site || !ref) return doc.size();  // not HPP-enabled: full transfer

  std::size_t cost = 0;
  if (templates_held_.insert({user_id, url.host, ref->category}).second) {
    // First access to this category: ship the macro template. It is static
    // content, so ordinary HTTP compression applies to it.
    const auto& tmpl = site->template_for(ref->category);
    cost += compress::compressed_size(
        util::as_view(util::to_bytes(tmpl.static_template())));
  }
  // Every access ships the compressed interpolation values.
  const util::Bytes payload = site->dynamic_payload(*ref, user_id, now);
  cost += std::min(compress::compressed_size(util::as_view(payload)), payload.size());
  return cost;
}

std::size_t ClasslessDeltaBaseline::wire_cost(std::uint64_t user_id, const http::Url& url,
                                              const util::Bytes& doc, util::SimTime) {
  const std::string key = std::to_string(user_id) + "|" + url.to_string();
  const auto it = bases_.find(key);
  std::size_t cost;
  if (it == bases_.end()) {
    // First access: full (compressed) transfer, then store the base.
    cost = std::min(compress::compressed_size(util::as_view(doc)), doc.size());
    storage_ += doc.size();
    bases_.emplace(key, doc);
    return cost;
  }
  const auto delta = delta::encode(util::as_view(it->second), util::as_view(doc)).delta;
  cost = std::min(compress::compressed_size(util::as_view(delta)), doc.size());
  storage_ += doc.size();
  storage_ -= it->second.size();
  it->second = doc;
  return cost;
}

}  // namespace cbde::core
