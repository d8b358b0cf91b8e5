// Ablations over the design choices DESIGN.md calls out:
//   A. the light estimator the grouping search probes with against the
//      transmit encoder's exact delta size on the same documents (§III
//      fn.2: "a light version ... to reduce computation cost");
//   B. base-file selector eviction variants (§IV fn.3);
//   C. rebase-timeout sweep ("to control the number of rebases");
//   D. anonymization M sweep for fixed N (§V: "values of M close to N
//      significantly reduce the size of the base-file");
//   E. grouping popular-fraction a sweep (§III: a*N popular tries).
#include <chrono>
#include <cstdio>

#include "bench_common.hpp"
#include "core/anonymizer.hpp"
#include "core/class_manager.hpp"
#include "core/simulation.hpp"

namespace {

using namespace cbde;
using util::Bytes;

trace::SiteModel make_site(std::uint64_t seed = 9000) {
  trace::SiteConfig config;
  config.host = "www.ablate.example";
  config.categories = {"alpha", "beta", "gamma", "delta"};
  config.docs_per_category = 40;
  config.seed = seed;
  return trace::SiteModel(config);
}

core::PipelineReport run_pipeline(const trace::SiteModel& site,
                                  const core::PipelineConfig& config,
                                  std::size_t requests = 1500) {
  server::OriginServer origin;
  origin.add_site(site);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  trace::WorkloadConfig wconfig;
  wconfig.num_requests = requests;
  wconfig.num_users = 120;
  core::Pipeline pipeline(origin, config, rules);
  pipeline.process_all(trace::WorkloadGenerator(site, wconfig).generate());
  return pipeline.report();
}

/// False when within() and the estimate take different match decisions on
/// any probe.
bool ablation_light_vs_full() {
  std::printf("\nA. grouping estimator: light estimate vs the encoder's exact size\n");
  const auto site = make_site();
  // Every probe the grouping search could make on this site: one base per
  // category against every document of every category at a later instant,
  // so same-category (match) and cross-category (no-match) pairs both occur.
  // Each pair is timed three ways: the probe the grouping search runs,
  // within(doc, floor(threshold x size)), which stops at its verdict; the
  // full estimate() the selector scores with; and the transmit encode.
  const double threshold = core::GroupingConfig{}.match_threshold;
  const auto secs = [](auto t0, auto t1) {
    return std::chrono::duration<double>(t1 - t0).count();
  };
  std::size_t probes = 0;
  std::size_t doc_bytes = 0;
  std::size_t agree = 0;
  std::size_t within_agree = 0;
  std::size_t light_matches = 0;
  std::size_t full_matches = 0;
  double ratio_sum = 0;
  double within_s = 0;
  double light_s = 0;
  double full_s = 0;
  const std::size_t per_category = site.config().docs_per_category;
  for (std::size_t base_cat = 0; base_cat < site.num_categories(); ++base_cat) {
    const Bytes base = site.generate(trace::DocRef{base_cat, 0}, 1, 0);
    const delta::Estimator estimator(base);
    const delta::Encoder encoder(base);
    for (std::size_t cat = 0; cat < site.num_categories(); ++cat) {
      for (std::size_t i = 0; i < per_category; ++i) {
        const Bytes doc = site.generate(trace::DocRef{cat, i}, 2 + i, 60 * util::kSecond);
        const auto limit =
            static_cast<std::size_t>(threshold * static_cast<double>(doc.size()));
        const auto t0 = std::chrono::steady_clock::now();
        const bool within = estimator.within(util::as_view(doc), limit);
        const auto t1 = std::chrono::steady_clock::now();
        const std::size_t light = estimator.estimate(util::as_view(doc));
        const auto t2 = std::chrono::steady_clock::now();
        const std::size_t full = encoder.encode(util::as_view(doc)).delta.size();
        const auto t3 = std::chrono::steady_clock::now();
        within_s += secs(t0, t1);
        light_s += secs(t1, t2);
        full_s += secs(t2, t3);
        const bool light_match = light <= limit;
        const bool full_match = full <= limit;
        light_matches += light_match;
        full_matches += full_match;
        agree += light_match == full_match;
        within_agree += within == light_match;
        ratio_sum += static_cast<double>(light) / static_cast<double>(full);
        doc_bytes += doc.size();
        ++probes;
      }
    }
  }
  const double n = static_cast<double>(probes);
  std::printf("  %zu probes of %.1f KB documents, match at threshold %.2f: light %zu, "
              "exact %zu, agree %.1f%%\n",
              probes, cbde::bench::to_kb(doc_bytes) / n, threshold, light_matches,
              full_matches, 100.0 * static_cast<double>(agree) / n);
  std::printf("  within() takes the estimate's match decision on %zu of %zu probes\n",
              within_agree, probes);
  std::printf("  light/exact size ratio %.2f (mean)   us/probe: within %.1f, estimate %.1f, "
              "encode %.1f\n",
              ratio_sum / n, within_s * 1e6 / n, light_s * 1e6 / n, full_s * 1e6 / n);
  std::printf("  (grouping probes run within(), at %.2fx an encode's time on these pages;\n"
              "   the full estimate() the selector scores with takes %.2fx)\n",
              within_s / full_s, light_s / full_s);
  return within_agree == probes;
}

void ablation_eviction() {
  std::printf("\nB. selector eviction policy (SIV fn.3 variants)\n");
  const auto site = make_site();
  using Ev = core::SelectorConfig::Eviction;
  constexpr std::pair<Ev, const char*> kPolicies[] = {
      {Ev::kWorst, "worst"},
      {Ev::kPeriodicRandom, "periodic-random"},
      {Ev::kTwoSet, "two-set"}};
  for (const auto& [policy, name] : kPolicies) {
    core::PipelineConfig config;
    config.measure_latency = false;
    config.server.selector.eviction = policy;
    config.server.selector.sample_prob = 0.3;
    const auto report = run_pipeline(site, config);
    std::printf("  %-16s savings=%5.1f%%  group-rebases=%llu\n", name,
                report.origin_savings() * 100.0,
                static_cast<unsigned long long>(report.server.group_rebases));
  }
}

void ablation_rebase_timeout() {
  std::printf("\nC. rebase-timeout sweep (controls rebase rate vs base-refetch cost)\n");
  const auto site = make_site();
  for (const long seconds : {5L, 30L, 120L, 600L}) {
    core::PipelineConfig config;
    config.measure_latency = false;
    config.server.rebase_timeout = seconds * util::kSecond;
    config.server.selector.sample_prob = 0.3;
    const auto report = run_pipeline(site, config);
    std::printf(
        "  timeout=%4lds: savings=%5.1f%%  rebases=%3llu  base KB (origin+proxy)=%6.0f\n",
        seconds, report.origin_savings() * 100.0,
        static_cast<unsigned long long>(report.server.group_rebases +
                                        report.server.basic_rebases),
        cbde::bench::to_kb(report.origin_base_bytes + report.proxy_base_bytes));
  }
}

void ablation_anonymization_m() {
  std::printf("\nD. anonymization M sweep at N=12 (base shrinkage vs delta growth)\n");
  trace::TemplateConfig tconfig;
  tconfig.personal_bytes = 1600;  // heavily personalized portal
  tconfig.private_bytes = 256;
  const trace::DocumentTemplate tmpl(4242, tconfig);
  const Bytes base = tmpl.generate(0, 1, 0);
  std::vector<Bytes> pool;
  for (std::uint64_t user = 50; user < 62; ++user) {
    pool.push_back(tmpl.generate(0, user, 0));
  }
  const Bytes probe = tmpl.generate(0, 99, 0);
  for (const std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                              std::size_t{4}, std::size_t{8}, std::size_t{12}}) {
    const Bytes anon = core::anonymize_against(util::as_view(base), pool, m);
    const auto d =
        delta::encode(util::as_view(anon), util::as_view(probe)).delta.size();
    std::printf("  M=%2zu: base %6zu -> %6zu bytes, delta to fresh doc %5zu bytes\n", m,
                base.size(), anon.size(), d);
  }
  std::printf("  (M=0 keeps everything; M=N strips all personalization and inflates\n"
              "   deltas -- the paper's rule of thumb N >= 2M sits in the knee)\n");
}

void ablation_popular_fraction() {
  std::printf("\nE. grouping popular-fraction a sweep (share of tries on popular classes)\n");
  const auto site = make_site();
  for (const double a : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    core::PipelineConfig config;
    config.measure_latency = false;
    config.server.grouping.popular_fraction = a;
    server::OriginServer origin;
    origin.add_site(site);
    http::RuleBook rules;
    rules.add_rule(site.config().host, site.partition_rule());
    trace::WorkloadConfig wconfig;
    wconfig.num_requests = 1500;
    wconfig.num_users = 120;
    core::Pipeline pipeline(origin, config, rules);
    pipeline.process_all(trace::WorkloadGenerator(site, wconfig).generate());
    const auto report = pipeline.report();
    const auto tries = pipeline.delta_server().grouping_stats().tries;
    double mean_tries = 0;
    for (std::size_t t = 0; t < tries.buckets(); ++t) {
      mean_tries += static_cast<double>(t) * static_cast<double>(tries.bucket(t));
    }
    mean_tries /= static_cast<double>(tries.total());
    std::printf("  a=%.2f: classes=%zu  mean tries=%.2f  savings=%5.1f%%\n", a,
                report.num_classes, mean_tries, report.origin_savings() * 100.0);
  }
}

}  // namespace

int main() {
  cbde::bench::print_title("Ablations over the paper's design choices");
  const bool within_agrees = ablation_light_vs_full();
  ablation_eviction();
  ablation_rebase_timeout();
  ablation_anonymization_m();
  ablation_popular_fraction();
  if (!within_agrees) {
    std::fprintf(stderr, "FAIL: within() disagreed with the estimate's match decision\n");
    return 1;
  }
  return 0;
}
