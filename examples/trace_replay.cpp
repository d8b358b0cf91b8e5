// Trace replay: drive the pipeline from an Apache-style access log.
//
// Mirrors the paper's methodology ("using traces from commercial web-sites,
// we calculate the total outbound traffic when delta-encoding and
// compression ... is used"). With no argument the example first *writes* a
// synthetic access log to ./cbde_trace.log, then replays it — so the log
// format round-trips through a real file. Pass a path to replay an
// existing log whose URLs resolve against the built-in demo site.
//
//   $ ./trace_replay [access.log]
#include <cstdio>
#include <fstream>

#include "core/simulation.hpp"
#include "trace/access_log.hpp"

int main(int argc, char** argv) {
  using namespace cbde;

  trace::SiteConfig sconfig;
  sconfig.host = "www.traced.example";
  sconfig.style = trace::UrlStyle::kPathOnly;
  sconfig.categories = {"articles", "reviews", "guides"};
  sconfig.docs_per_category = 40;
  const trace::SiteModel site(sconfig);

  const char* path = argc > 1 ? argv[1] : "cbde_trace.log";
  if (argc <= 1) {
    // Generate a workload and persist it as a Common Log Format file.
    trace::WorkloadConfig wconfig;
    wconfig.num_requests = 2000;
    wconfig.num_users = 100;
    const auto requests = trace::WorkloadGenerator(site, wconfig).generate();
    std::ofstream out(path);
    trace::write_access_log(out, trace::to_records(requests, site));
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path);
      return 1;
    }
    std::printf("wrote synthetic access log: %s (%zu requests)\n", path,
                requests.size());
  }

  std::ifstream in(path);
  if (!in) {
    std::printf("cannot open %s\n", path);
    return 1;
  }
  std::size_t skipped = 0;
  const auto records = trace::read_access_log(in, &skipped);
  std::printf("parsed %zu records (%zu malformed lines skipped)\n", records.size(),
              skipped);
  if (records.empty()) return 1;

  server::OriginServer origin;
  origin.add_site(site);
  http::RuleBook rules;
  rules.add_rule(sconfig.host, site.partition_rule());
  core::PipelineConfig config;
  core::Pipeline pipeline(origin, config, rules);

  std::size_t replayed = 0;
  for (const auto& rec : records) {
    const std::string host = rec.host.empty() ? sconfig.host : rec.host;
    pipeline.process(rec.user_id, http::parse_url(host + rec.target), rec.time);
    ++replayed;
  }

  const auto report = pipeline.report();
  std::printf("replayed %zu requests: %llu deltas, %llu direct, %llu URLs unknown\n",
              replayed, static_cast<unsigned long long>(report.server.delta_responses),
              static_cast<unsigned long long>(report.server.direct_responses),
              static_cast<unsigned long long>(report.not_found));
  std::printf("outbound: %.0f KB direct -> %.0f KB with CBDE (savings %.1f%%, "
              "reduction %.0fx)\n",
              static_cast<double>(report.server.direct_bytes) / 1024.0,
              static_cast<double>(report.server.wire_bytes + report.origin_base_bytes) /
                  1024.0,
              report.origin_savings() * 100.0,
              static_cast<double>(report.server.direct_bytes) /
                  static_cast<double>(report.server.wire_bytes +
                                      report.origin_base_bytes + 1));
  std::printf("reconstruction: %llu verified, %llu failures\n",
              static_cast<unsigned long long>(report.verified),
              static_cast<unsigned long long>(report.verify_failures));
  return report.verify_failures == 0 ? 0 : 1;
}
