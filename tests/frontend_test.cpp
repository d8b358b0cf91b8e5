// HTTP-level integration: DeltaFrontend <- HttpProxy <- HttpClientAgent,
// all speaking serialized HTTP/1.1 — the paper's transparent deployment.
#include <gtest/gtest.h>

#include "client/http_client.hpp"
#include "core/frontend.hpp"
#include "proxy/http_proxy.hpp"

namespace cbde::core {
namespace {

using util::Bytes;

struct HttpRig {
  trace::SiteModel site;
  server::OriginServer origin;
  DeltaFrontend frontend;
  util::SimTime now = 0;

  static trace::SiteConfig site_config() {
    trace::SiteConfig config;
    config.host = "www.shop.example";
    config.docs_per_category = 12;
    return config;
  }

  static DeltaServerConfig server_config() {
    DeltaServerConfig config;
    config.anonymizer.required_docs = 3;
    config.anonymizer.min_common = 1;
    return config;
  }

  HttpRig()
      : site(site_config()),
        origin(),
        frontend(origin, server_config(), make_rules(site)) {
    origin.add_site(site);
  }

  static http::RuleBook make_rules(const trace::SiteModel& site) {
    http::RuleBook rules;
    rules.add_rule(site.config().host, site.partition_rule());
    return rules;
  }

  /// Direct transport: client <-> frontend over serialized bytes.
  client::Transport direct_transport() {
    return [this](const http::HttpRequest& req) {
      const Bytes raw = frontend.handle_raw(util::as_view(req.serialize()), now);
      return http::HttpResponse::parse(util::as_view(raw));
    };
  }

  /// Warm the class machinery: first request creates the class, three more
  /// distinct users complete anonymization.
  void warm_up() {
    for (std::uint64_t user = 1; user <= 4; ++user) {
      client::HttpClientAgent agent(user);
      now += util::kSecond;
      agent.get(site.url_for(trace::DocRef{0, 0}), direct_transport());
    }
  }
};

TEST(HttpFrontend, LegacyClientGetsPlainDocument) {
  HttpRig rig;
  http::HttpRequest req;
  req.target = rig.site.url_for(trace::DocRef{0, 1}).request_target();
  req.headers.set("Host", rig.site.config().host);
  // No X-CBDE-Accept: the frontend must behave like a normal web-server.
  const auto resp = rig.frontend.handle(req, 0);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers.get("Content-Type"), "text/html");
  EXPECT_EQ(resp.headers.get("Cache-Control"), "no-cache");
  EXPECT_EQ(resp.body, rig.site.generate(trace::DocRef{0, 1}, 0, 0));
}

TEST(HttpFrontend, CapableClientReconstructsExactDocument) {
  HttpRig rig;
  rig.warm_up();
  client::HttpClientAgent agent(42);
  rig.now += util::kSecond;
  const auto url = rig.site.url_for(trace::DocRef{0, 3});
  const Bytes doc = agent.get(url, rig.direct_transport());
  EXPECT_EQ(doc, rig.site.generate(trace::DocRef{0, 3}, 42, rig.now));
  EXPECT_EQ(agent.stats().delta_responses, 1u);
  EXPECT_EQ(agent.stats().base_fetches, 1u);

  // Second fetch: base already held, only the (small) delta travels.
  rig.now += util::kSecond;
  const auto before = agent.stats().bytes_over_wire;
  const Bytes doc2 = agent.get(url, rig.direct_transport());
  EXPECT_EQ(doc2, rig.site.generate(trace::DocRef{0, 3}, 42, rig.now));
  EXPECT_EQ(agent.stats().base_fetches, 1u);
  EXPECT_LT(agent.stats().bytes_over_wire - before, doc2.size() / 3);
}

TEST(HttpFrontend, BaseEndpointIsCachableAndVersioned) {
  HttpRig rig;
  rig.warm_up();
  client::HttpClientAgent agent(9);
  rig.now += util::kSecond;
  agent.get(rig.site.url_for(trace::DocRef{0, 0}), rig.direct_transport());

  // Fetch the base endpoint directly.
  http::HttpRequest req;
  req.target = "/.cbde/base?class=1&v=1";
  req.headers.set("Host", rig.site.config().host);
  const auto resp = rig.frontend.handle(req, rig.now);
  EXPECT_EQ(resp.status, 200);
  const auto cc = resp.headers.get("Cache-Control");
  ASSERT_TRUE(cc.has_value());
  EXPECT_NE(cc->find("public"), std::string_view::npos);

  // Unknown version -> 404.
  req.target = "/.cbde/base?class=1&v=999";
  EXPECT_EQ(rig.frontend.handle(req, rig.now).status, 404);
  req.target = "/.cbde/base?class=junk";
  EXPECT_EQ(rig.frontend.handle(req, rig.now).status, 400);
  // 2^32 + 1 must not truncate to v=1: that would put version 1's cachable
  // bytes under a URL the server never advertised.
  req.target = "/.cbde/base?class=1&v=4294967297";
  EXPECT_EQ(rig.frontend.handle(req, rig.now).status, 400);
}

TEST(HttpFrontend, ProxyAbsorbsBaseFetchesAcrossClients) {
  HttpRig rig;
  rig.warm_up();
  proxy::HttpProxy proxy(8 * 1024 * 1024, [&rig](const http::HttpRequest& req) {
    const Bytes raw = rig.frontend.handle_raw(util::as_view(req.serialize()), rig.now);
    return http::HttpResponse::parse(util::as_view(raw));
  });
  client::Transport via_proxy = [&proxy](const http::HttpRequest& req) {
    return proxy.handle(req);
  };

  // Ten fresh clients fetch the same page through the proxy: each needs the
  // base-file, but only the first fetch reaches the origin.
  for (std::uint64_t user = 100; user < 110; ++user) {
    client::HttpClientAgent agent(user);
    rig.now += util::kSecond;
    const auto url = rig.site.url_for(trace::DocRef{0, 0});
    const Bytes doc = agent.get(url, via_proxy);
    EXPECT_EQ(doc, rig.site.generate(trace::DocRef{0, 0}, user, rig.now));
    EXPECT_EQ(agent.stats().base_fetches, 1u);
  }
  EXPECT_GE(proxy.stats().hits, 9u);        // base served from cache
  EXPECT_EQ(proxy.cached_objects(), 1u);    // only the base is cachable
}

TEST(HttpFrontend, DynamicResponsesNeverCached) {
  HttpRig rig;
  rig.warm_up();
  std::size_t upstream_calls = 0;
  proxy::HttpProxy proxy(8 * 1024 * 1024, [&](const http::HttpRequest& req) {
    ++upstream_calls;
    const Bytes raw = rig.frontend.handle_raw(util::as_view(req.serialize()), rig.now);
    return http::HttpResponse::parse(util::as_view(raw));
  });
  client::HttpClientAgent agent(7);
  const auto url = rig.site.url_for(trace::DocRef{0, 5});
  for (int i = 0; i < 3; ++i) {
    rig.now += util::kSecond;
    agent.get(url, [&proxy](const http::HttpRequest& req) { return proxy.handle(req); });
  }
  // 3 page requests + 1 base fetch, page requests never cached.
  EXPECT_EQ(upstream_calls, 4u);
}

TEST(HttpFrontend, MalformedRequestsGet400NotCrash) {
  HttpRig rig;
  const Bytes garbage = util::to_bytes("NOT HTTP AT ALL");
  const auto raw = rig.frontend.handle_raw(util::as_view(garbage), 0);
  const auto resp = http::HttpResponse::parse(util::as_view(raw));
  EXPECT_EQ(resp.status, 400);

  http::HttpRequest no_host;
  no_host.target = "/x";
  EXPECT_EQ(rig.frontend.handle(no_host, 0).status, 400);

  http::HttpRequest post;
  post.method = "POST";
  post.target = "/x";
  post.headers.set("Host", "www.shop.example");
  EXPECT_EQ(rig.frontend.handle(post, 0).status, 400);
}

TEST(HttpFrontend, UnknownDocumentIs404) {
  HttpRig rig;
  http::HttpRequest req;
  req.target = "/nonexistent";
  req.headers.set("Host", rig.site.config().host);
  req.headers.set("X-CBDE-Accept", "1");
  EXPECT_EQ(rig.frontend.handle(req, 0).status, 404);
}

TEST(HttpFrontend, UserHeaderParsing) {
  http::HttpRequest req;
  EXPECT_EQ(parse_user_header(req), 0u);
  req.headers.set("X-CBDE-User", "1234");
  EXPECT_EQ(parse_user_header(req), 1234u);
  req.headers.set("X-CBDE-User", "bogus");
  EXPECT_EQ(parse_user_header(req), 0u);
}

TEST(HttpFrontend, ClientRejectsTamperedDeltaBody) {
  HttpRig rig;
  rig.warm_up();
  client::HttpClientAgent agent(33);
  rig.now += util::kSecond;
  // Intercepting transport that corrupts delta payloads in flight.
  client::Transport corrupting = [&rig](const http::HttpRequest& req) {
    const Bytes raw = rig.frontend.handle_raw(util::as_view(req.serialize()), rig.now);
    auto resp = http::HttpResponse::parse(util::as_view(raw));
    if (const auto ct = resp.headers.get("Content-Type");
        ct && *ct == "application/vnd.cbde-delta" && resp.body.size() > 10) {
      resp.body[resp.body.size() / 2] ^= 0xFF;
    }
    return resp;
  };
  EXPECT_THROW(agent.get(rig.site.url_for(trace::DocRef{0, 0}), corrupting),
               std::exception);
}

}  // namespace
}  // namespace cbde::core
