// E-commerce catalog behind a delta-server: the full Fig. 2 architecture.
//
// A product-catalog site (the paper's www.foo.com selling laptops and
// desktops, Table I) is fronted by a delta-server. A population of shoppers
// browses it; the pipeline groups product pages into classes, selects and
// anonymizes base-files, and serves compressed deltas. Every response is
// reconstructed at the client and verified byte-for-byte.
//
//   $ ./ecommerce_site [num_requests]
#include <cstdio>
#include <cstdlib>

#include "core/baselines.hpp"
#include "core/simulation.hpp"

int main(int argc, char** argv) {
  using namespace cbde;
  const std::size_t num_requests =
      argc > 1 ? static_cast<std::size_t>(std::atol(argv[1])) : 3000;

  // The shop: four departments of similar product pages, addressed as
  // www.foo.com/<dept>?id=<n> (Table I, row 1).
  trace::SiteConfig sconfig;
  sconfig.host = "www.foo.com";
  sconfig.style = trace::UrlStyle::kPathSegment;
  sconfig.categories = {"laptops", "desktops", "monitors", "accessories"};
  sconfig.docs_per_category = 50;
  const trace::SiteModel shop(sconfig);

  server::OriginServer origin;
  origin.add_site(shop);

  // The administrator registers the URL partition rule for this site
  // (SIII: "the administrator describes ... using regular expressions").
  http::RuleBook rules;
  rules.add_rule(sconfig.host, shop.partition_rule());

  core::PipelineConfig config;
  core::Pipeline pipeline(origin, config, rules);
  // Basic delta-encoding over the same requests, for its storage: one base
  // per (user, URL).
  core::ClasslessDeltaBaseline classless(origin);

  trace::WorkloadConfig wconfig;
  wconfig.num_requests = num_requests;
  wconfig.num_users = 150;
  wconfig.zipf_alpha = 1.0;
  for (const trace::Request& req : trace::WorkloadGenerator(shop, wconfig).generate()) {
    pipeline.process(req.user_id, req.url, req.time);
    classless.process(req.user_id, req.url, req.time);
  }

  const auto report = pipeline.report();
  std::printf("requests processed      : %llu (every delta reconstruction verified)\n",
              static_cast<unsigned long long>(report.requests));
  std::printf("  served as delta       : %llu\n",
              static_cast<unsigned long long>(report.server.delta_responses));
  std::printf("  served direct         : %llu\n",
              static_cast<unsigned long long>(report.server.direct_responses));
  std::printf("  verification failures : %llu\n",
              static_cast<unsigned long long>(report.verify_failures));
  std::printf("classes formed          : %zu (for %zu product pages)\n",
              report.num_classes, shop.num_documents());
  std::printf("outbound traffic        : %.1f MB direct -> %.1f MB with CBDE "
              "(savings %.1f%%)\n",
              static_cast<double>(report.server.direct_bytes) / 1e6,
              static_cast<double>(report.server.wire_bytes + report.origin_base_bytes) /
                  1e6,
              report.origin_savings() * 100.0);
  std::printf("base-files via proxy    : %.1f MB absorbed by the proxy-cache\n",
              static_cast<double>(report.proxy_base_bytes) / 1e6);
  std::printf("server-side storage     : %.0f KB (classless delta-encoding would "
              "need %.0f KB)\n",
              static_cast<double>(report.storage_bytes) / 1024.0,
              static_cast<double>(classless.storage_bytes()) / 1024.0);
  std::printf("modem latency           : %.2f s -> %.2f s mean per page (%.1fx faster)\n",
              report.latency_direct_us.mean() / 1e6,
              report.latency_actual_us.mean() / 1e6, report.mean_latency_ratio());

  std::printf("\nper-class status:\n");
  std::printf("  %6s %9s %9s %12s %9s %6s\n", "class", "members", "base ver",
              "base bytes", "samples", "anon");
  for (const auto& cls : pipeline.delta_server().class_summaries()) {
    std::printf("  %6llu %9llu %9u %12zu %9zu %6s\n",
                static_cast<unsigned long long>(cls.id),
                static_cast<unsigned long long>(cls.members), cls.published_version,
                cls.published_size, cls.selector_samples,
                cls.anonymizing ? "busy" : "done");
  }
  return report.verify_failures == 0 ? 0 : 1;
}
