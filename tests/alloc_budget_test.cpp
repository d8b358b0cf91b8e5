// Per-request allocation budget for DeltaServer::serve.
//
// This test links bench/alloc_hook.cpp — a counting global operator new —
// and pins the steady-state allocations-per-request of DeltaServer::serve.
// The budget sits just above the measured figure, so a single extra
// allocation per request fails: a reintroduced per-request document copy, a
// new node insert, or an unreserved growth loop on the serve path.
//
// Built as its own executable: the hook replaces the global allocator,
// which cbde_tests must not inherit.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "../bench/alloc_hook.hpp"
#include "core/delta_server.hpp"
#include "trace/site.hpp"
#include "util/bytes.hpp"

namespace cbde {
namespace {

constexpr std::size_t kWarmupRequests = 64;
constexpr std::size_t kMeasuredRequests = 256;

/// Steady-state allocations per serve() call on a small generated site:
/// warm up until classes exist and bases are published, then measure.
double measured_allocs_per_request() {
  trace::SiteConfig sconfig;
  sconfig.categories = {"c0", "c1", "c2", "c3"};
  sconfig.docs_per_category = 8;
  const trace::SiteModel site(sconfig);

  core::DeltaServerConfig config;
  config.anonymize = false;  // steady state: every request grouped + encoded
  config.selector.sample_prob = 0.05;
  config.rebase_timeout = 1000000 * util::kSecond;
  config.basic_rebase_after = 1 << 20;

  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  core::DeltaServer server(config, std::move(rules));

  const std::size_t cats = site.num_categories();
  const auto request_of = [&](std::size_t i) {
    const trace::DocRef ref{i % cats,
                            1 + i % (site.config().docs_per_category - 1)};
    return ref;
  };

  for (std::size_t c = 0; c < cats; ++c) {
    const trace::DocRef ref{c, 0};
    const util::Bytes doc = site.generate(ref, 1, 0);
    server.serve(1, site.url_for(ref), util::as_view(doc), 0);
  }
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    const trace::DocRef ref = request_of(i);
    const util::Bytes doc = site.generate(ref, 2 + i % 17, 0);
    server.serve(2 + i % 17, site.url_for(ref),  util::as_view(doc),
                 static_cast<util::SimTime>(i) * util::kSecond);
  }

  // Pre-generate the measured stream so document generation is not counted.
  std::vector<std::pair<trace::DocRef, util::Bytes>> stream;
  stream.reserve(kMeasuredRequests);
  for (std::size_t i = 0; i < kMeasuredRequests; ++i) {
    const trace::DocRef ref = request_of(kWarmupRequests + i);
    stream.emplace_back(ref, site.generate(ref, 2 + i % 17, 0));
  }

  const std::uint64_t before = bench::alloc_count();
  for (std::size_t i = 0; i < kMeasuredRequests; ++i) {
    const auto& [ref, doc] = stream[i];
    server.serve(2 + i % 17, site.url_for(ref), util::as_view(doc),
                 static_cast<util::SimTime>(kWarmupRequests + i) * util::kSecond);
  }
  const std::uint64_t after = bench::alloc_count();
  return static_cast<double>(after - before) /
         static_cast<double>(kMeasuredRequests);
}

TEST(AllocBudget, HookIsLinked) { EXPECT_TRUE(bench::alloc_hook_active()); }

// Measured steady state is 10.72 allocations/request on libstdc++ (CBZ1
// compress allocates only its output). Lower the budget when the serve path
// sheds an allocation; raising it needs a reason in the commit message.
constexpr double kBudgetPerRequest = 11.0;

TEST(AllocBudget, ServeStaysUnderBudget) {
  const double per_request = measured_allocs_per_request();
  RecordProperty("allocs_per_request", std::to_string(per_request));
  EXPECT_GT(per_request, 0.0);  // the hook actually counted something
  EXPECT_LE(per_request, kBudgetPerRequest)
      << "serve() allocation regression: " << per_request
      << " allocs/request against a budget of " << kBudgetPerRequest
      << " — find the new allocation on the serve path";
}

}  // namespace
}  // namespace cbde
