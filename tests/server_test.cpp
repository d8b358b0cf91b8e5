#include <gtest/gtest.h>

#include "server/load.hpp"
#include "server/origin.hpp"

namespace cbde::server {
namespace {

// ---------------------------------------------------------------- origin

TEST(OriginServer, ServesKnownDocuments) {
  trace::SiteConfig config;
  const trace::SiteModel site(config);
  OriginServer origin;
  origin.add_site(site);

  const auto doc = origin.document(site.url_for(trace::DocRef{0, 3}), 9, 0);
  ASSERT_TRUE(doc.has_value());
  EXPECT_GT(doc->size(), 10000u);
}

TEST(OriginServer, DocumentMatchesSiteGeneration) {
  trace::SiteConfig config;
  const trace::SiteModel site(config);
  OriginServer origin;
  origin.add_site(site);
  const auto url = site.url_for(trace::DocRef{1, 7});
  const auto doc = origin.document(url, 5, 42 * util::kSecond);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(*doc, site.generate(trace::DocRef{1, 7}, 5, 42 * util::kSecond));
}

TEST(OriginServer, UnknownHostAndDocGive404) {
  trace::SiteConfig config;
  const trace::SiteModel site(config);
  OriginServer origin;
  origin.add_site(site);
  EXPECT_FALSE(origin.document(http::parse_url("www.unknown.com/x"), 1, 0).has_value());
  EXPECT_FALSE(origin.document(http::parse_url(config.host + "/nope"), 1, 0).has_value());
}

TEST(OriginServer, MultipleVirtualHosts) {
  trace::SiteConfig c1;
  c1.host = "www.a.com";
  trace::SiteConfig c2;
  c2.host = "www.b.com";
  const trace::SiteModel s1(c1), s2(c2);
  OriginServer origin;
  origin.add_site(s1);
  origin.add_site(s2);
  EXPECT_EQ(origin.num_sites(), 2u);
  EXPECT_EQ(origin.site("www.a.com"), &s1);
  EXPECT_EQ(origin.site("www.b.com"), &s2);
  EXPECT_EQ(origin.site("www.c.com"), nullptr);
}

TEST(OriginServer, DuplicateHostRejected) {
  trace::SiteConfig config;
  const trace::SiteModel site(config);
  OriginServer origin;
  origin.add_site(site);
  EXPECT_THROW(origin.add_site(site), std::invalid_argument);
}

// ---------------------------------------------------------------- load harness

TEST(LoadHarness, ThroughputIsCpuBoundWithFastClients) {
  LoadConfig config;
  config.mode = PipelineMode::kPlain;
  config.num_clients = 100;
  config.cpu_us_per_request = 5600;  // ~178 req/s
  config.response_bytes = 30 * 1024;
  config.client_link = netsim::LinkProfile::broadband();
  const auto result = run_closed_loop(config);
  EXPECT_GT(result.requests_per_sec, 150);
  EXPECT_LT(result.requests_per_sec, 200);
}

TEST(LoadHarness, HigherCpuCostLowersThroughput) {
  LoadConfig plain;
  plain.cpu_us_per_request = 5600;
  LoadConfig delta = plain;
  delta.cpu_us_per_request = 7700;  // + delta generation
  const auto plain_result = run_closed_loop(plain);
  const auto delta_result = run_closed_loop(delta);
  EXPECT_GT(plain_result.requests_per_sec, delta_result.requests_per_sec);
}

TEST(LoadHarness, SlowClientsExhaustPlainServerSlots) {
  LoadConfig config;
  config.mode = PipelineMode::kPlain;
  config.num_clients = 400;
  config.client_link = netsim::LinkProfile::modem();
  config.response_bytes = 30 * 1024;
  const auto result = run_closed_loop(config);
  EXPECT_EQ(result.peak_connections, 255u);  // the web-server's slot limit
  EXPECT_GT(result.refused, 0u);
}

TEST(LoadHarness, DeltaFrontEndSustainsMoreConnections) {
  LoadConfig config;
  config.mode = PipelineMode::kDelta;
  config.num_clients = 600;
  config.cpu_us_per_request = 7700;
  config.client_link = netsim::LinkProfile::modem();
  config.response_bytes = 3 * 1024;  // compressed delta
  const auto result = run_closed_loop(config);
  EXPECT_GT(result.peak_connections, 255u);
  EXPECT_EQ(result.refused, 0u);
}

TEST(LoadHarness, PinnedCapacityRows) {
  // The four configurations bench_capacity prints, recorded before the
  // harness moved onto netsim::EventQueue. The latency means are exact.
  struct Row {
    bool modem;
    bool delta;
    std::uint64_t completed;
    std::uint64_t refused;
    std::size_t peak;
    double mean_latency_us;
  };
  const Row rows[] = {
      {false, false, 10650, 0, 100, 560295.54929577466},
      {false, true, 7765, 0, 100, 767059.7037990985},
      {true, false, 3041, 41300, 255, 4939158.50411049},
      {true, true, 7679, 0, 600, 4483971.6629769504},
  };
  for (const Row& row : rows) {
    LoadConfig config;
    config.mode = row.delta ? PipelineMode::kDelta : PipelineMode::kPlain;
    config.num_clients = row.modem ? 600 : 100;
    config.cpu_us_per_request = row.delta ? 7700 : 5600;
    config.response_bytes = (row.delta ? 3 : 30) * 1024;
    config.client_link =
        row.modem ? netsim::LinkProfile::modem() : netsim::LinkProfile::broadband();
    const auto result = run_closed_loop(config);
    SCOPED_TRACE(std::string(row.modem ? "modem" : "broadband") +
                 (row.delta ? " delta" : " plain"));
    EXPECT_EQ(result.completed, row.completed);
    EXPECT_EQ(result.refused, row.refused);
    EXPECT_EQ(result.peak_connections, row.peak);
    EXPECT_EQ(result.mean_latency_us, row.mean_latency_us);
  }
}

TEST(LoadHarness, DeterministicResults) {
  LoadConfig config;
  config.num_clients = 50;
  const auto a = run_closed_loop(config);
  const auto b = run_closed_loop(config);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_DOUBLE_EQ(a.mean_latency_us, b.mean_latency_us);
}

}  // namespace
}  // namespace cbde::server
