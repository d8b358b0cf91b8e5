#include "server/origin.hpp"

#include "util/contracts.hpp"

namespace cbde::server {

void OriginServer::add_site(const trace::SiteModel& site) {
  const auto [it, inserted] = sites_.emplace(site.config().host, &site);
  CBDE_EXPECT(inserted && "duplicate virtual host");
}

std::optional<util::Bytes> OriginServer::document(const http::Url& url, std::uint64_t user_id,
                                                  util::SimTime now) const {
  const auto it = sites_.find(url.host);
  if (it == sites_.end()) return std::nullopt;
  const auto doc = it->second->resolve(url);
  if (!doc) return std::nullopt;
  return it->second->generate(*doc, user_id, now);
}

const trace::SiteModel* OriginServer::site(const std::string& host) const {
  const auto it = sites_.find(host);
  return it == sites_.end() ? nullptr : it->second;
}

}  // namespace cbde::server
