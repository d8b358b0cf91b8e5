// Config-file-driven deployment: the administrator workflow end to end.
//
// Loads a cbde.conf (writing the documented example if the file does not
// exist), builds the delta-server front-end from it — partition rules,
// manual classes, anonymization parameters — and drives a short browsing
// session through it over serialized HTTP.
//
//   $ ./configured_frontend [cbde.conf]
#include <cstdio>
#include <fstream>

#include "client/http_client.hpp"
#include "core/config_loader.hpp"
#include "core/frontend.hpp"

int main(int argc, char** argv) {
  using namespace cbde;
  const std::string path = argc > 1 ? argv[1] : "cbde.conf";

  if (!std::ifstream(path)) {
    std::ofstream out(path);
    out << core::example_config();
    out.close();
    if (!out) {
      std::fprintf(stderr, "config: cannot write example configuration to %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote example configuration to %s\n", path.c_str());
  }

  core::LoadedConfig config;
  try {
    config = core::load_config_file(path);
  } catch (const core::ConfigError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  std::printf("loaded %s: anonymize=%s compress=%s K=%zu p=%.2f N=%zu\n",
              path.c_str(), config.server.anonymize ? "yes" : "no",
              config.server.compress_deltas ? "yes" : "no",
              config.server.selector.max_samples, config.server.selector.sample_prob,
              config.server.grouping.max_tries);

  // A site matching the example config's www.foo.com partition rule.
  trace::SiteConfig sconfig;
  sconfig.host = "www.foo.com";
  sconfig.style = trace::UrlStyle::kPathSegment;
  sconfig.categories = {"laptops", "desktops"};
  sconfig.docs_per_category = 20;
  const trace::SiteModel site(sconfig);
  server::OriginServer origin;
  origin.add_site(site);

  core::DeltaFrontend frontend(origin, config.server, std::move(config.rules));

  // Browse: a handful of users, several pages each, over raw HTTP bytes.
  util::SimTime now = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t direct_bytes = 0;
  client::Transport transport = [&](const http::HttpRequest& req) {
    const auto raw = frontend.handle_raw(util::as_view(req.serialize()), now);
    return http::HttpResponse::parse(util::as_view(raw));
  };
  // Users browse concurrently (interleaved), as real traffic does — the
  // anonymization process needs documents from distinct users before the
  // class base can be published (SV).
  std::size_t pages = 0;
  std::vector<client::HttpClientAgent> agents;
  for (std::uint64_t user = 1; user <= 10; ++user) agents.emplace_back(user);
  for (std::size_t page = 0; page < 15; ++page) {
    for (auto& agent : agents) {
      now += util::kSecond;
      const trace::DocRef ref{page % 2, (agent.user_id() + page) % 20};
      const auto doc = agent.get(site.url_for(ref), transport);
      direct_bytes += doc.size();
      ++pages;
    }
  }
  for (const auto& agent : agents) wire_bytes += agent.stats().bytes_over_wire;

  std::printf("browsed %zu pages: %.1f KB direct -> %.1f KB over the wire "
              "(savings %.1f%%)\n", pages,
              static_cast<double>(direct_bytes) / 1024.0,
              static_cast<double>(wire_bytes) / 1024.0,
              100.0 * (1.0 - static_cast<double>(wire_bytes) /
                                 static_cast<double>(direct_bytes)));
  std::printf("classes: %zu, server storage: %.0f KB\n",
              frontend.delta_server().num_classes(),
              static_cast<double>(frontend.delta_server().storage_bytes()) / 1024.0);
  return 0;
}
