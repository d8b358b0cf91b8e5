// Cross-module property sweeps (TEST_P): invariants that must hold across
// configurations, seeds and adversarial inputs.
#include <gtest/gtest.h>

#include <ostream>

#include "compress/compressor.hpp"
#include "core/baselines.hpp"
#include "core/simulation.hpp"
#include "delta/delta.hpp"
#include "http/message.hpp"
#include "util/rng.hpp"

namespace cbde {
namespace {

using util::Bytes;
using util::as_view;

// ------------------------------------------------------------ pipeline

struct PipelineCase {
  std::uint64_t seed;
  std::size_t requests;
  std::size_t users;
  bool anonymize;
  bool compress;
};

// Names each case by its fields in gtest and ctest output. gtest's fallback
// prints the struct's raw bytes, uninitialised padding included, so the
// same case had a different ctest name in each build.
void PrintTo(const PipelineCase& c, std::ostream* os) {
  *os << "seed=" << c.seed << " requests=" << c.requests << " users=" << c.users
      << (c.anonymize ? " anon" : "") << (c.compress ? " compress" : "");
}

class PipelineInvariants : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineInvariants, HoldAcrossConfigurations) {
  const PipelineCase param = GetParam();

  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 10;
  sconfig.seed = param.seed;
  const trace::SiteModel site(sconfig);
  server::OriginServer origin;
  origin.add_site(site);
  http::RuleBook rules;
  rules.add_rule(sconfig.host, site.partition_rule());

  core::PipelineConfig config;
  config.server.seed = param.seed * 31;
  config.server.anonymize = param.anonymize;
  config.server.compress_deltas = param.compress;
  config.server.anonymizer.required_docs = 3;
  config.server.anonymizer.min_common = 1;

  trace::WorkloadConfig wconfig;
  wconfig.num_requests = param.requests;
  wconfig.num_users = param.users;
  wconfig.seed = param.seed;

  core::Pipeline pipeline(origin, config, rules);
  core::ClasslessDeltaBaseline classless(origin);
  for (const trace::Request& req : trace::WorkloadGenerator(site, wconfig).generate()) {
    pipeline.process(req.user_id, req.url, req.time);
    classless.process(req.user_id, req.url, req.time);
  }
  const auto report = pipeline.report();

  // Invariant 1: every delta reconstruction verified, none failed.
  EXPECT_EQ(report.verify_failures, 0u);
  EXPECT_EQ(report.verified, report.server.delta_responses);

  // Invariant 2: response accounting is complete and byte-sane.
  EXPECT_EQ(report.server.requests,
            report.server.direct_responses + report.server.delta_responses);
  EXPECT_LE(report.server.wire_bytes, report.server.direct_bytes);

  // Invariant 3: the scheme's storage never exceeds the classless scheme's.
  EXPECT_LE(report.storage_bytes, classless.storage_bytes());

  // Invariant 4: savings are real whenever any delta was served.
  if (report.server.delta_responses > report.server.requests / 2) {
    EXPECT_GT(report.origin_savings(), 0.3);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineInvariants,
    ::testing::Values(PipelineCase{1, 200, 10, true, true},
                      PipelineCase{2, 200, 10, false, true},
                      PipelineCase{3, 200, 10, true, false},
                      PipelineCase{4, 200, 10, true, true},
                      PipelineCase{5, 300, 40, false, false},
                      PipelineCase{6, 300, 3, true, true}));

// ------------------------------------------------------------ codecs

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, StructuredRandomRoundTrips) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 12; ++trial) {
    // Structured pseudo-documents: repeated vocabulary + random bytes.
    Bytes doc;
    const std::size_t n = 64 + rng.next_below(20000);
    while (doc.size() < n) {
      if (rng.bernoulli(0.7)) {
        util::append(doc, std::string_view("<td class=cell>value</td>"));
      } else {
        doc.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
    }
    // Compressor round trip.
    ASSERT_EQ(compress::decompress(as_view(compress::compress(as_view(doc)))), doc);
    // Delta round trip against a mutated sibling.
    Bytes sibling = doc;
    for (int e = 0; e < 8 && !sibling.empty(); ++e) {
      sibling[rng.next_below(sibling.size())] ^= 0xFF;
    }
    const Bytes delta = delta::encode(as_view(doc), as_view(sibling)).delta;
    ASSERT_EQ(delta::apply(as_view(doc), as_view(delta)), sibling);
  }
}

TEST_P(CodecFuzz, GarbageNeverCrashesDecoders) {
  util::Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 40; ++trial) {
    Bytes junk(rng.next_below(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    // Valid-looking magics half the time, to reach deeper parse paths.
    if (junk.size() >= 4 && rng.bernoulli(0.5)) {
      const char* magic = rng.bernoulli(0.5) ? "CBZ1" : "CBD1";
      std::copy(magic, magic + 4, junk.begin());
    }
    EXPECT_THROW(
        {
          try {
            compress::decompress(as_view(junk));
          } catch (const compress::CorruptInput&) {
            throw;
          }
        },
        compress::CorruptInput);
    const Bytes base = util::to_bytes("some base");
    try {
      delta::apply(as_view(base), as_view(junk));
      FAIL() << "garbage accepted as delta";
    } catch (const delta::CorruptDelta&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(11ull, 22ull, 33ull, 44ull));

// ------------------------------------------------------------ http robustness

class HttpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HttpFuzz, ParserNeverCrashesOnMutations) {
  util::Rng rng(GetParam());
  http::HttpResponse resp;
  resp.headers.add("Content-Type", "text/html");
  resp.body = util::to_bytes("hello body content");
  const Bytes wire = resp.serialize();

  for (int trial = 0; trial < 200; ++trial) {
    Bytes mutated = wire;
    const std::size_t edits = 1 + rng.next_below(4);
    for (std::size_t e = 0; e < edits && !mutated.empty(); ++e) {
      const std::size_t pos = rng.next_below(mutated.size());
      switch (rng.next_below(3)) {
        case 0: mutated[pos] = static_cast<std::uint8_t>(rng.next_below(256)); break;
        case 1: mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(pos)); break;
        default:
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos),
                         static_cast<std::uint8_t>(rng.next_below(256)));
      }
    }
    try {
      const auto parsed = http::HttpResponse::parse(as_view(mutated));
      (void)parsed;  // accepted: a benign mutation
    } catch (const http::HttpError&) {
      // rejected with the typed error: also fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HttpFuzz, ::testing::Values(7ull, 8ull));

}  // namespace
}  // namespace cbde
