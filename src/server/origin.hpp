// Simulated origin web-server: the "web-server" box of Fig. 2.
//
// Routes a URL to the current snapshot of the corresponding dynamic
// document, generated on the fly (like a CGI/app server). Multiple virtual
// hosts (SiteModels) are supported so one delta-server can front several
// sites, as in Table II.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "http/url.hpp"
#include "trace/site.hpp"
#include "util/clock.hpp"

namespace cbde::server {

class OriginServer {
 public:
  /// Register a virtual host. The server keeps a reference; the site must
  /// outlive the server.
  void add_site(const trace::SiteModel& site);

  /// The document `url` names, generated for `user_id` at simulated time
  /// `now`; nullopt for unknown hosts or documents (a 404).
  std::optional<util::Bytes> document(const http::Url& url, std::uint64_t user_id,
                                      util::SimTime now) const;

  std::size_t num_sites() const { return sites_.size(); }
  const trace::SiteModel* site(const std::string& host) const;

 private:
  std::map<std::string, const trace::SiteModel*> sites_;
};

}  // namespace cbde::server
