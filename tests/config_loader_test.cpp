#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/config_loader.hpp"
#include "http/url.hpp"

namespace cbde::core {
namespace {

LoadedConfig parse(const std::string& text) {
  std::istringstream in(text);
  return load_config(in);
}

TEST(ConfigLoader, ExampleConfigParses) {
  const auto config = parse(example_config());
  EXPECT_TRUE(config.server.anonymize);
  EXPECT_TRUE(config.server.compress_deltas);
  EXPECT_DOUBLE_EQ(config.server.selector.sample_prob, 0.2);
  EXPECT_EQ(config.server.selector.max_samples, 8u);
  EXPECT_EQ(config.server.grouping.max_tries, 8u);
  EXPECT_DOUBLE_EQ(config.server.grouping.popular_fraction, 0.5);
  EXPECT_EQ(config.server.rebase_timeout, 120 * util::kSecond);
  EXPECT_EQ(config.server.anonymizer.min_common, 2u);
  EXPECT_EQ(config.server.anonymizer.required_docs, 5u);
  EXPECT_TRUE(config.rules.has_rule("www.foo.com"));
  ASSERT_EQ(config.server.manual_classes.size(), 1u);
  EXPECT_EQ(config.server.manual_classes[0].first, "www.adhoc.example");
  EXPECT_EQ(config.server.manual_classes[0].second, "specials");
}

TEST(ConfigLoader, ExampleManualClassPinsRequests) {
  // The example pins www.adhoc.example's "specials" hint to a manual class:
  // unrelated pages under it join that class with no content test.
  const LoadedConfig config = parse(example_config());
  DeltaServer server(config.server, config.rules);
  const auto first = server.serve(1, http::parse_url("http://www.adhoc.example/specials"),
                                  util::as_view(util::to_bytes(std::string(600, 'a'))), 0);
  const auto second =
      server.serve(2, http::parse_url("http://www.adhoc.example/specials?week=2"),
                   util::as_view(util::to_bytes(std::string(900, 'z'))), util::kSecond);
  EXPECT_FALSE(first.class_created);
  EXPECT_EQ(first.class_id, second.class_id);
  EXPECT_EQ(server.grouping_stats().manual_hits, 2u);
  EXPECT_EQ(server.grouping_stats().classes_created, 0u);
}

TEST(ConfigLoader, CommentsAndBlankLinesIgnored) {
  const auto config = parse(
      "# leading comment\n"
      "\n"
      "[delta-server]\n"
      "   # indented comment\n"
      "max-tries = 3\n");
  EXPECT_EQ(config.server.grouping.max_tries, 3u);
}

TEST(ConfigLoader, PartitionRuleActuallyWorks) {
  const auto config = parse(
      "[site www.shop.example]\n"
      "partition = ^/x/([a-z]+)/(.*)$\n");
  const auto parts = config.rules.partition(http::parse_url("www.shop.example/x/tv/7"));
  EXPECT_EQ(parts.hint_part, "tv");
  EXPECT_EQ(parts.rest, "7");
}

TEST(ConfigLoader, UnknownKeysRejectedWithLineNumber) {
  try {
    parse("[delta-server]\nmax-tires = 8\n");  // typo
    FAIL() << "typo accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("max-tires"), std::string::npos);
  }
}

TEST(ConfigLoader, MalformedInputsRejected) {
  EXPECT_THROW(parse("max-tries = 8\n"), ConfigError);               // key before section
  EXPECT_THROW(parse("[delta-server\n"), ConfigError);               // unterminated
  EXPECT_THROW(parse("[mystery]\n"), ConfigError);                   // unknown section
  EXPECT_THROW(parse("[site ]\n"), ConfigError);                     // empty host
  EXPECT_THROW(parse("[delta-server]\nmax-tries 8\n"), ConfigError); // no '='
  EXPECT_THROW(parse("[delta-server]\nmax-tries = eight\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\nanonymize = maybe\n"), ConfigError);
  EXPECT_THROW(parse("[delta-server]\nsample-prob = 0.2x\n"), ConfigError);
  EXPECT_THROW(parse("[site www.x.com]\npartition = ([unclosed\n"), ConfigError);
  // Empty pattern must fail with the loader's typed error, not trip
  // PartitionRule's precondition mid-construction.
  EXPECT_THROW(parse("[site www.x.com]\npartition =\n"), ConfigError);
  EXPECT_THROW(parse("[site www.x.com]\npartition =   \n"), ConfigError);
  // Integers too large for their field fail on their line instead of
  // wrapping: the int rebase count, and seconds that overflow the
  // microsecond clock.
  for (const char* line : {"basic-rebase-after = 2147483648", "basic-rebase-after = 4294967298",
                           "rebase-timeout-s = 18446744073709551615",
                           "rebase-timeout-s = 9223372036855"}) {
    try {
      parse(std::string("[delta-server]\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
  // The largest values that fit still load.
  const auto edge = parse("[delta-server]\nbasic-rebase-after = 2147483647\n"
                          "rebase-timeout-s = 9223372036854\n");
  EXPECT_EQ(edge.server.basic_rebase_after, 2147483647);
  EXPECT_EQ(edge.server.rebase_timeout, 9223372036854 * util::kSecond);
}

TEST(ConfigLoader, OutOfRangeValuesRejectedWithLineNumber) {
  // Each of these used to load: the server then threw std::invalid_argument
  // from its constructor or from the first request that created a class,
  // or (a non-finite ratio) silently switched basic-rebase off, or (a zero
  // count or a ratio <= 0) made every published class basic-rebase over and
  // over.
  for (const char* lines :
       {"max-samples = 0", "sample-prob = 1.5", "sample-prob = nan",
        "anonymizer-m = 0\nanonymizer-n = 0", "max-tries = 0", "popular-fraction = 2",
        "match-threshold = 0", "basic-rebase-ratio = nan", "basic-rebase-ratio = inf",
        "basic-rebase-ratio = 0", "basic-rebase-ratio = -1", "basic-rebase-after = 0"}) {
    const std::string text = std::string("[delta-server]\n") + lines + "\n";
    const std::string bad_line =
        "line " + std::to_string(std::count(text.begin(), text.end(), '\n'));
    try {
      parse(text);
      ADD_FAILURE() << "accepted: " << lines;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(bad_line), std::string::npos) << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << "not a ConfigError for '" << lines << "': " << e.what();
    }
  }
  // The ends of each range still load.
  const auto edge = parse(
      "[delta-server]\nmax-samples = 1\nsample-prob = 1\nmax-tries = 1\n"
      "popular-fraction = 0\nanonymizer-m = 1\nanonymizer-n = 1\n"
      "basic-rebase-after = 1\nbasic-rebase-ratio = 0.001\n");
  EXPECT_EQ(edge.server.selector.max_samples, 1u);
  EXPECT_DOUBLE_EQ(edge.server.selector.sample_prob, 1.0);
  EXPECT_EQ(edge.server.anonymizer.required_docs, 1u);
  EXPECT_EQ(edge.server.basic_rebase_after, 1);
  EXPECT_DOUBLE_EQ(edge.server.basic_rebase_ratio, 0.001);
}

TEST(ConfigLoader, CrossFieldValidation) {
  EXPECT_THROW(parse("[delta-server]\nanonymizer-m = 9\nanonymizer-n = 4\n"),
               ConfigError);
}

TEST(ConfigLoader, RemovedDeltaKeysAreRejected) {
  // The encoder and the light estimator each have one fixed
  // parameterization, the server is one server with one lock, and every
  // histogram has one bucket layout, so the old transmit-tuning keys, the
  // shard count and the histogram resolution are unknown keys: a config
  // that still sets one fails at load time with the line number.
  for (const char* line : {"delta-key-len = 4", "delta-index-step = 1",
                           "delta-max-chain = 32", "delta-min-match = 32",
                           "server-shards = 1", "obs-histogram-buckets = 4"}) {
    try {
      parse(std::string("[delta-server]\n") + line + "\n");
      ADD_FAILURE() << "accepted: " << line;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown delta-server key"), std::string::npos);
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
}

TEST(ConfigLoader, RemovedStoreKeyIsRejected) {
  // Each class keeps its published bases in memory; there is no store to
  // choose, so a config that still names one fails at load time.
  try {
    parse("[delta-server]\nanonymize = true\nbase-store = memory\n");
    FAIL() << "base-store accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown delta-server key 'base-store'"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST(ConfigLoader, LoadedConfigDrivesARealServer) {
  auto config = parse(
      "[delta-server]\n"
      "anonymize = false\n"
      "max-tries = 4\n"
      "[site www.example.com]\n"
      "partition = ^/([^/?]+)\\?(.*)$\n");
  DeltaServer server(config.server, std::move(config.rules));
  // Serve two similar documents; the second should come back as a delta.
  const auto url1 = http::parse_url("www.example.com/laptops?id=1");
  const auto url2 = http::parse_url("www.example.com/laptops?id=2");
  const auto doc1 = util::to_bytes(std::string(20000, 'd') + "one");
  const auto doc2 = util::to_bytes(std::string(20000, 'd') + "two");
  server.serve(1, url1, util::as_view(doc1), 0);
  const auto resp = server.serve(2, url2, util::as_view(doc2), util::kSecond);
  EXPECT_EQ(resp.mode, ServedResponse::Mode::kDelta);
}

TEST(ConfigLoader, MissingFileRejected) {
  EXPECT_THROW(load_config_file("/nonexistent/cbde.conf"), ConfigError);
}

}  // namespace
}  // namespace cbde::core
