// §VI-A latency analysis — converting bandwidth savings into latency
// savings.
//
// The paper's argument: for S1 = 30 KB (document) vs S2 = 1 KB (gzipped
// delta), L1/L2 ~ log2(S1/S2) ~ 5 on a high-bandwidth path (TCP slow-start
// rounds dominate) and ~10 on a 56 kb/s modem (transmission dominates but
// fixed costs moderate the 30x size ratio). We measure both ratios from the
// TCP model, sweep the size axis, and then measure the end-to-end latency
// ratio the pipeline delivers on a modem population ("the latency perceived
// by most users by a factor of 10 on average").
#include <cstdio>

#include "bench_common.hpp"
#include "core/simulation.hpp"
#include "netsim/tcp_model.hpp"

namespace {

using namespace cbde;

void sweep(const char* label, const netsim::LinkProfile& link) {
  std::printf("\n%s (bw=%.0f kb/s, rtt=%lld ms):\n", label, link.bandwidth_bps / 1000.0,
              static_cast<long long>(link.rtt / util::kMillisecond));
  std::printf("  %10s %8s %12s %12s %12s %12s\n", "size", "rounds", "slowstart ms",
              "transmit ms", "total ms", "no-setup ms");
  for (std::size_t kb : {1, 2, 4, 8, 16, 30, 64, 128}) {
    const auto lat = netsim::transfer_latency(kb * 1024, link);
    std::printf("  %8zu KB %8d %12.1f %12.1f %12.1f %12.1f\n", kb, lat.rounds,
                static_cast<double>(lat.slow_start) / 1000.0,
                static_cast<double>(lat.transmission) / 1000.0,
                static_cast<double>(lat.total()) / 1000.0,
                static_cast<double>(lat.total_no_setup()) / 1000.0);
  }
}

}  // namespace

int main() {
  using cbde::bench::print_title;

  print_title(
      "SVI-A latency -- TCP transfer model: L1/L2 for a 30 KB document vs a 1 KB\n"
      "gzipped delta (paper: ~5 on high bandwidth, ~10 on a 56k modem)");

  const auto broadband = netsim::LinkProfile::broadband();
  const auto modem = netsim::LinkProfile::modem();
  sweep("high-bandwidth", broadband);
  sweep("56k modem", modem);

  const double hb_ratio =
      static_cast<double>(netsim::transfer_latency(30 * 1024, broadband).total_no_setup()) /
      static_cast<double>(netsim::transfer_latency(1 * 1024, broadband).total_no_setup());
  const double modem_ratio =
      static_cast<double>(netsim::transfer_latency(30 * 1024, modem).total()) /
      static_cast<double>(netsim::transfer_latency(1 * 1024, modem).total());
  std::printf("\nL1/L2, S1=30KB vs S2=1KB:\n");
  std::printf("  high bandwidth: paper ~5     measured %.2f (slow-start rounds)\n",
              hb_ratio);
  std::printf("  56k modem:      paper ~10    measured %.2f (incl. setup/loss/queueing)\n",
              modem_ratio);

  // End-to-end: latency ratio delivered by the full pipeline on a modem
  // population, deltas + base-file fetches included.
  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 40;
  sconfig.categories = {"portal", "news", "finance"};
  const trace::SiteModel site(sconfig);
  server::OriginServer origin;
  origin.add_site(site);
  http::RuleBook rules;
  rules.add_rule(sconfig.host, site.partition_rule());

  core::PipelineConfig config;  // the pipeline charges latency to modem clients
  trace::WorkloadConfig wconfig;
  wconfig.num_requests = 3000;
  wconfig.num_users = 150;
  core::Pipeline pipeline(origin, config, rules);
  pipeline.process_all(trace::WorkloadGenerator(site, wconfig).generate());
  const auto report = pipeline.report();

  std::printf("\nEnd-to-end pipeline on modem clients (%llu requests):\n",
              static_cast<unsigned long long>(report.requests));
  std::printf("  mean latency   direct %.2f s -> with CBDE %.2f s  (ratio %.1f)\n",
              report.latency_direct_us.mean() / 1e6, report.latency_actual_us.mean() / 1e6,
              report.mean_latency_ratio());
  std::printf("  median latency direct %.2f s -> with CBDE %.2f s  (ratio %.1f)\n",
              report.latency_direct_us.percentile(0.5) / 1e6,
              report.latency_actual_us.percentile(0.5) / 1e6,
              report.latency_direct_us.percentile(0.5) /
                  report.latency_actual_us.percentile(0.5));
  std::printf("  p90 latency    direct %.2f s -> with CBDE %.2f s\n",
              report.latency_direct_us.percentile(0.9) / 1e6,
              report.latency_actual_us.percentile(0.9) / 1e6);
  std::printf(
      "\nShape check: high-bandwidth ratio ~5, modem ratio ~10, pipeline median\n"
      "ratio in the 5-15x band (paper: \"latency ... by a factor of 10 ... on average\").\n");

  const double median_ratio = report.latency_direct_us.percentile(0.5) /
                              report.latency_actual_us.percentile(0.5);
  const bool ok = hb_ratio > 3 && hb_ratio < 7 && modem_ratio > 6 && modem_ratio < 16 &&
                  median_ratio > 4;
  return ok ? 0 : 1;
}
