#include <gtest/gtest.h>

#include "client/agent.hpp"
#include "client/http_client.hpp"
#include "compress/compressor.hpp"
#include "delta/delta.hpp"
#include "trace/document.hpp"

namespace cbde::client {
namespace {

using util::Bytes;
using util::as_view;

struct Fixture {
  trace::DocumentTemplate tmpl{11, trace::TemplateConfig{}};
  Bytes base = tmpl.generate(1, 5, 0);
  Bytes doc = tmpl.generate(1, 5, 30 * util::kSecond);
};

TEST(ClientAgent, StoresAndReportsBaseVersions) {
  ClientAgent agent;
  EXPECT_FALSE(agent.base_version(7).has_value());
  agent.store_base(BaseRef{7, 3}, util::to_bytes("base"));
  EXPECT_EQ(agent.base_version(7), 3u);
  agent.store_base(BaseRef{7, 4}, util::to_bytes("base2"));
  EXPECT_EQ(agent.base_version(7), 4u);
  EXPECT_EQ(agent.stored_bases(), 1u);
  EXPECT_EQ(agent.stats().bases_stored, 2u);
}

TEST(ClientAgent, ReconstructsFromUncompressedDelta) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  const Bytes out = agent.reconstruct(BaseRef{1, 1}, as_view(delta), false);
  EXPECT_EQ(out, f.doc);
  EXPECT_EQ(agent.stats().deltas_applied, 1u);
  EXPECT_EQ(agent.stats().bytes_reconstructed, f.doc.size());
}

TEST(ClientAgent, ReconstructsFromCompressedDelta) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  const Bytes wire = compress::compress(as_view(delta));
  EXPECT_LT(wire.size(), delta.size() + 32);
  EXPECT_EQ(agent.reconstruct(BaseRef{1, 1}, as_view(wire), true), f.doc);
}

TEST(ClientAgent, MissingBaseThrows) {
  Fixture f;
  ClientAgent agent;
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(delta), false),
               std::invalid_argument);
  EXPECT_EQ(agent.stats().reconstruction_failures, 1u);
}

TEST(ClientAgent, VersionMismatchThrows) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 2}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(delta), false),
               std::invalid_argument);
}

TEST(ClientAgent, StaleBaseContentDetected) {
  // Client holds the right version number but wrong bytes (corruption);
  // the delta's base checksum must catch it.
  Fixture f;
  ClientAgent agent;
  Bytes stale = f.base;
  stale[100] ^= 0xFF;
  agent.store_base(BaseRef{1, 1}, stale);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(delta), false),
               delta::CorruptDelta);
  EXPECT_EQ(agent.stats().reconstruction_failures, 1u);
}

TEST(ClientAgent, CorruptCompressedWireDetected) {
  Fixture f;
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, f.base);
  const auto delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  Bytes wire = compress::compress(as_view(delta));
  wire[wire.size() / 2] ^= 0x40;
  EXPECT_THROW(agent.reconstruct(BaseRef{1, 1}, as_view(wire), true),
               compress::CorruptInput);
}

TEST(ClientAgent, TracksStoredBytesAcrossClasses) {
  ClientAgent agent;
  agent.store_base(BaseRef{1, 1}, Bytes(100, 'a'));
  agent.store_base(BaseRef{2, 1}, Bytes(250, 'b'));
  EXPECT_EQ(agent.stored_bases(), 2u);
  EXPECT_EQ(agent.stored_bytes(), 350u);
}

TEST(HttpClientAgent, RejectsBaseVersionAboveUint32) {
  // X-CBDE-Base-Version is untrusted. 2^32 + 1 must not wrap to version 1,
  // which would store the fetched base and apply the delta under a version
  // the server never named.
  Fixture f;
  const Bytes delta = delta::encode(as_view(f.base), as_view(f.doc)).delta;
  std::size_t calls = 0;
  const auto serving = [&](const std::string& version) -> Transport {
    return [&, version](const http::HttpRequest& req) {
      ++calls;
      http::HttpResponse resp;
      if (req.target.starts_with("/.cbde/base")) {
        resp.body = f.base;
        return resp;
      }
      resp.headers.set("Content-Type", "application/vnd.cbde-delta");
      resp.headers.set("X-CBDE-Class", "1");
      resp.headers.set("X-CBDE-Base-Version", version);
      resp.headers.set("X-CBDE-Base-Location", "/.cbde/base?class=1&v=" + version);
      resp.body = delta;
      return resp;
    };
  };
  const http::Url url = http::parse_url("http://www.example.com/page");
  HttpClientAgent agent(7);
  EXPECT_THROW(agent.get(url, serving("4294967297")), http::HttpError);
  EXPECT_EQ(calls, 1u);  // refused before any base fetch
  EXPECT_EQ(agent.store().stored_bases(), 0u);

  // The largest version that fits is as valid as any other.
  EXPECT_EQ(agent.get(url, serving("4294967295")), f.doc);
  EXPECT_EQ(agent.store().base_version(1), 4294967295u);
}

}  // namespace
}  // namespace cbde::client
