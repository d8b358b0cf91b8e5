// Sharded DeltaServer: routing stability, cross-shard merge correctness, and
// the Table II invariant that byte accounting is identical at any shard
// count (the scheme's results must not depend on how the server is scaled).
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <tuple>
#include <vector>

#include "core/delta_server.hpp"
#include "core/delta_worker_pool.hpp"
#include "obs/obs.hpp"
#include "trace/site.hpp"

namespace cbde::core {
namespace {

using util::Bytes;
using util::as_view;

// ------------------------------------------------------------- routing

// Pinned assignments: routing uses the in-tree zlib-compatible crc32 over
// "server-part NUL hint-part". These values were computed independently with
// Python's zlib.crc32; if they move, every sharded deployment would rehash
// its classes on upgrade — that is a breaking change, not a refactor detail.
TEST(ShardRouting, PinnedAssignmentsAreStable) {
  struct Case {
    const char* server;
    const char* hint;
    std::size_t at2, at4, at8;
  };
  const Case cases[] = {
      {"www.foo.com", "laptops", 1, 3, 3},
      {"www.foo.com", "desktops", 0, 0, 4},
      {"www.example.com", "tablets", 1, 1, 1},
      {"shop.example.com", "phones", 0, 0, 4},
      {"www.adhoc.example", "specials", 0, 0, 4},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(DeltaServer::route(c.server, c.hint, 1), 0u) << c.server;
    EXPECT_EQ(DeltaServer::route(c.server, c.hint, 2), c.at2) << c.server;
    EXPECT_EQ(DeltaServer::route(c.server, c.hint, 4), c.at4) << c.server;
    EXPECT_EQ(DeltaServer::route(c.server, c.hint, 8), c.at8) << c.server;
  }
  // The NUL separator keeps part boundaries significant: ("ab","c") and
  // ("a","bc") hash as different keys (crc32 values 0x3d3660d6 vs
  // 0x21ae76bd land them on different shards at 4).
  EXPECT_EQ(DeltaServer::route("ab", "c", 4), 2u);
  EXPECT_EQ(DeltaServer::route("a", "bc", 4), 1u);
}

struct ShardRig {
  trace::SiteModel site;
  DeltaServer server;

  static trace::SiteConfig site_config() {
    trace::SiteConfig config;
    config.docs_per_category = 8;
    config.categories = {"laptops", "desktops", "tablets", "phones", "monitors",
                         "printers"};
    return config;
  }

  static DeltaServerConfig fast_config(std::size_t shards) {
    DeltaServerConfig config;
    config.anonymizer.required_docs = 3;
    config.anonymizer.min_common = 1;
    config.selector.sample_prob = 0.3;
    config.shards = shards;
    return config;
  }

  static http::RuleBook rules(const trace::SiteModel& site) {
    http::RuleBook book;
    book.add_rule(site.config().host, site.partition_rule());
    return book;
  }

  explicit ShardRig(std::size_t shards)
      : site(site_config()), server(fast_config(shards), rules(site)) {}

  ServedResponse request(std::uint64_t user, std::size_t cat, std::size_t doc,
                         util::SimTime now) {
    const trace::DocRef ref{cat, doc};
    const auto url = site.url_for(ref);
    const Bytes body = site.generate(ref, user, now);
    return server.serve(user, url, as_view(body), now);
  }

  /// A deterministic mixed workload touching every category. Returns the
  /// number of requests issued. The user count (7) is coprime with the
  /// category count (6) so every class sees all users — the anonymizer needs
  /// several distinct non-owner users before it publishes anything.
  std::size_t replay(std::size_t requests) {
    util::SimTime now = 0;
    const std::size_t cats = site.config().categories.size();
    for (std::size_t i = 0; i < requests; ++i) {
      now += util::kSecond;
      request(1 + i % 7, i % cats, (i * 7) % site.config().docs_per_category, now);
    }
    return requests;
  }
};

TEST(ShardRouting, ClassIdsRecoverTheOwningShard) {
  // Every class id created on shard s satisfies shard_of_class(id) == s ==
  // route(parts) of the requests that formed it: ids are striped as
  // shard + 1 + k * num_shards.
  ShardRig rig(4);
  util::SimTime now = 0;
  const std::size_t cats = rig.site.config().categories.size();
  for (std::size_t i = 0; i < 60; ++i) {
    now += util::kSecond;
    const trace::DocRef ref{i % cats, i % rig.site.config().docs_per_category};
    const auto url = rig.site.url_for(ref);
    const Bytes body = rig.site.generate(ref, 1 + i % 5, now);
    const auto resp = rig.server.serve(1 + i % 5, url, as_view(body), now);
    const auto parts = rig.server.rules().partition(url);
    const std::size_t expect_shard =
        DeltaServer::route(parts.server_part, parts.hint_part, 4);
    ASSERT_GE(resp.class_id, 1u);
    EXPECT_EQ(rig.server.shard_of_class(resp.class_id), expect_shard);
    EXPECT_EQ((resp.class_id - 1) % 4, expect_shard);
  }
  // The routed accessors agree with the striping: every summary id resolves.
  for (const auto& summary : rig.server.class_summaries()) {
    EXPECT_LT(rig.server.shard_of_class(summary.id), 4u);
  }
}

TEST(ShardRouting, UnshardedKeepsHistoricalClassIds) {
  ShardRig rig(1);
  rig.replay(30);
  const auto summaries = rig.server.class_summaries();
  ASSERT_FALSE(summaries.empty());
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[i].id, i + 1);  // dense 1, 2, 3, ... as before
  }
}

// ------------------------------------------------------------- parity

/// The fields Table II is built from; everything here must be bit-exact
/// regardless of shard count.
void expect_byte_identical(const PipelineMetrics& a, const PipelineMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.direct_responses, b.direct_responses);
  EXPECT_EQ(a.delta_responses, b.delta_responses);
  EXPECT_EQ(a.direct_bytes, b.direct_bytes);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.base_wire_bytes, b.base_wire_bytes);
  EXPECT_EQ(a.group_rebases, b.group_rebases);
  EXPECT_EQ(a.basic_rebases, b.basic_rebases);
  EXPECT_EQ(a.anonymizations_completed, b.anonymizations_completed);
}

void expect_internally_consistent(const PipelineMetrics& m) {
  EXPECT_EQ(m.requests, m.direct_responses + m.delta_responses);
  EXPECT_LE(m.wire_bytes, m.direct_bytes);
}

TEST(ShardParity, TableTwoByteAccountingIdenticalAcrossShardCounts) {
  // The same serially-replayed workload at shards=1 and shards=4 must
  // produce identical Table II accounting: same grouping decisions, same
  // per-class seeds (ClassManager derives them from class identity, not
  // from a shared RNG stream), therefore the same deltas and bytes.
  ShardRig one(1);
  ShardRig four(4);
  const std::size_t n = one.replay(240);
  ASSERT_EQ(four.replay(240), n);

  const PipelineMetrics m1 = one.server.metrics();
  const PipelineMetrics m4 = four.server.metrics();
  EXPECT_EQ(m1.requests, n);
  EXPECT_GT(m1.delta_responses, 0u);
  expect_byte_identical(m1, m4);

  // Derived views merge losslessly too.
  EXPECT_EQ(one.server.num_classes(), four.server.num_classes());
  EXPECT_EQ(one.server.storage_bytes(), four.server.storage_bytes());
  const GroupingStats g1 = one.server.grouping_stats();
  const GroupingStats g4 = four.server.grouping_stats();
  EXPECT_EQ(g1.requests, g4.requests);
  EXPECT_EQ(g1.classes_created, g4.classes_created);
  EXPECT_EQ(g1.tries.total(), g4.tries.total());

  // Classes correspond one-to-one (ids differ — they are striped — but the
  // class contents must match).
  auto s1 = one.server.class_summaries();
  auto s4 = four.server.class_summaries();
  ASSERT_EQ(s1.size(), s4.size());
  const auto key = [](const ClassSummary& s) {
    return std::tuple(s.members, s.published_version, s.published_size,
                      s.working_size, s.selector_samples, s.anonymizing);
  };
  const auto by_key = [&](const ClassSummary& a, const ClassSummary& b) {
    return key(a) < key(b);
  };
  std::sort(s1.begin(), s1.end(), by_key);
  std::sort(s4.begin(), s4.end(), by_key);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(key(s1[i]), key(s4[i])) << "summary " << i;
  }
}

TEST(ShardParity, LedgerSumMatchesRegistryAndPerShardLedgersAreConsistent) {
  // metrics() is the sum of per-shard ledgers, and a registry snapshot sums
  // the same ledgers through the server's collector. The three views must
  // agree exactly — per shard, merged, and registry.
  ShardRig rig(3);
  rig.replay(150);

  PipelineMetrics sum;
  for (std::size_t s = 0; s < rig.server.num_shards(); ++s) {
    const PipelineMetrics shard = rig.server.shard_metrics(s);
    expect_internally_consistent(shard);
    sum.merge(shard);
  }
  const PipelineMetrics merged = rig.server.metrics();
  expect_byte_identical(sum, merged);
  expect_internally_consistent(merged);
  EXPECT_GT(merged.delta_responses, 0u);
  // Work actually spread: no shard served everything.
  for (std::size_t s = 0; s < rig.server.num_shards(); ++s) {
    EXPECT_LT(rig.server.shard_metrics(s).requests, merged.requests);
  }

  const auto snapshot = rig.server.obs().registry().snapshot();
  const auto counter_value = [&](const std::string& name) -> std::uint64_t {
    const auto it = snapshot.find(name);
    EXPECT_NE(it, snapshot.end()) << name;
    return it == snapshot.end() ? 0 : it->second.counter;
  };
  EXPECT_EQ(merged.requests, counter_value("cbde_server_requests_total"));
  EXPECT_EQ(merged.direct_responses,
            counter_value("cbde_server_direct_responses_total"));
  EXPECT_EQ(merged.delta_responses,
            counter_value("cbde_server_delta_responses_total"));
  EXPECT_EQ(merged.direct_bytes, counter_value("cbde_server_direct_bytes_total"));
  EXPECT_EQ(merged.wire_bytes, counter_value("cbde_server_wire_bytes_total"));
  EXPECT_EQ(merged.base_wire_bytes,
            counter_value("cbde_server_base_wire_bytes_total"));
  EXPECT_EQ(merged.group_rebases, counter_value("cbde_server_group_rebases_total"));
  EXPECT_EQ(merged.basic_rebases, counter_value("cbde_server_basic_rebases_total"));
  EXPECT_EQ(merged.anonymizations_completed,
            counter_value("cbde_server_anonymizations_total"));
  for (std::size_t s = 0; s < rig.server.num_shards(); ++s) {
    EXPECT_EQ(rig.server.shard_metrics(s).requests,
              counter_value(obs::shard_metric_name("cbde_shard_requests_total", s)));
  }
}

TEST(ShardParity, RoutedAccessorsFindEveryClass) {
  // published_base/fetch_base must route to the owning shard: every class
  // with a published version is reachable through the public accessors, and
  // a fetched base matches what the published view exposes.
  ShardRig rig(4);
  rig.replay(200);
  std::size_t published_seen = 0;
  for (const auto& summary : rig.server.class_summaries()) {
    if (summary.published_version == 0) continue;
    ++published_seen;
    const auto base = rig.server.published_base(summary.id);
    ASSERT_TRUE(base.has_value()) << "class " << summary.id;
    EXPECT_EQ(base->version, summary.published_version);
    const auto fetched = rig.server.fetch_base(summary.id, base->version);
    ASSERT_TRUE(fetched.has_value());
    EXPECT_TRUE(std::equal(base->bytes.begin(), base->bytes.end(),
                           fetched->begin(), fetched->end()));
  }
  EXPECT_GT(published_seen, 0u);
  // Unknown ids miss cleanly on whatever shard they map to.
  EXPECT_FALSE(rig.server.published_base(9999).has_value());
  EXPECT_FALSE(rig.server.fetch_base(9998, 1).has_value());
}

// ------------------------------------------------------------- concurrency

// Multi-shard variant of the pool stress (suite name keeps it inside the
// ci.sh tsan group, -R 'DeltaServerPool|ObsConcurrency'): workers hit all
// shards concurrently; totals must still be conserved exactly, and every
// delta must apply against the version it reports.
TEST(DeltaServerPool, MultiShardThreadedStressConservesTotals) {
  auto config = ShardRig::fast_config(/*shards=*/4);
  config.selector.sample_prob = 0.1;
  trace::SiteConfig sconfig = ShardRig::site_config();
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  DeltaServer server(config, std::move(rules));
  ASSERT_EQ(server.num_shards(), 4u);

  constexpr std::size_t kRequests = 200;
  struct Sent {
    std::size_t doc_bytes;
    std::future<ServedResponse> response;
  };
  std::vector<Sent> sent;
  sent.reserve(kRequests);
  {
    // workers=0: recommended sizing — at least one worker per shard even on
    // a single-core host, so cross-shard interleaving is actually exercised.
    DeltaWorkerPool pool(server, /*workers=*/0, /*queue_capacity=*/16);
    EXPECT_GE(pool.workers(), server.num_shards());
    EXPECT_EQ(pool.workers(), DeltaWorkerPool::recommended_workers(server));
    for (std::size_t i = 0; i < kRequests; ++i) {
      const trace::DocRef ref{i % sconfig.categories.size(),
                              i % sconfig.docs_per_category};
      const std::uint64_t user = 1 + i % 13;
      const util::SimTime now = static_cast<util::SimTime>(i) * util::kSecond;
      Bytes doc = site.generate(ref, user, now);
      const std::size_t doc_bytes = doc.size();
      sent.push_back(
          Sent{doc_bytes, pool.submit(user, site.url_for(ref), std::move(doc), now)});
    }
  }  // pool destructor drains the queue and joins

  std::size_t direct = 0;
  std::size_t deltas = 0;
  std::size_t doc_bytes_total = 0;
  std::size_t wire_bytes_total = 0;
  std::size_t base_wire_total = 0;
  for (Sent& s : sent) {
    const ServedResponse resp = s.response.get();
    EXPECT_EQ(resp.doc_size, s.doc_bytes);
    if (resp.mode == ServedResponse::Mode::kDelta) {
      ++deltas;
      const auto base = server.fetch_base(resp.class_id, resp.base_version);
      ASSERT_TRUE(base.has_value());
      const Bytes raw = resp.wire_compressed
                            ? compress::decompress(as_view(resp.wire_body))
                            : resp.wire_body;
      EXPECT_EQ(delta::apply(as_view(*base), as_view(raw)).size(), resp.doc_size);
    } else {
      ++direct;
      EXPECT_EQ(resp.wire_body.size(), resp.doc_size);
    }
    doc_bytes_total += resp.doc_size;
    wire_bytes_total += resp.wire_body.size();
    base_wire_total += resp.base_needed ? resp.base_size : 0;
  }

  const PipelineMetrics m = server.metrics();
  EXPECT_EQ(m.requests, kRequests);
  EXPECT_EQ(m.direct_responses, direct);
  EXPECT_EQ(m.delta_responses, deltas);
  EXPECT_EQ(m.direct_bytes, doc_bytes_total);
  EXPECT_EQ(m.wire_bytes, wire_bytes_total);
  EXPECT_EQ(m.base_wire_bytes, base_wire_total);
  EXPECT_GT(deltas, kRequests / 2);

  // Per-shard ledgers partition the totals exactly (quiesced).
  PipelineMetrics sum;
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    sum.merge(server.shard_metrics(s));
  }
  EXPECT_EQ(sum.requests, m.requests);
  EXPECT_EQ(sum.wire_bytes, m.wire_bytes);
  EXPECT_EQ(sum.base_wire_bytes, m.base_wire_bytes);
  EXPECT_EQ(sum.direct_bytes, m.direct_bytes);
}

}  // namespace
}  // namespace cbde::core
