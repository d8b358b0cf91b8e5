#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_server.hpp"
#include "core/delta_worker_pool.hpp"
#include "trace/site.hpp"

namespace cbde::core {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

struct Rig {
  trace::SiteModel site;
  DeltaServer server;

  static trace::SiteConfig site_config() {
    trace::SiteConfig config;
    config.docs_per_category = 10;
    return config;
  }

  static http::RuleBook rules(const trace::SiteModel& site) {
    http::RuleBook book;
    book.add_rule(site.config().host, site.partition_rule());
    return book;
  }

  explicit Rig(DeltaServerConfig config = fast_config())
      : site(site_config()), server(config, rules(site)) {}

  static DeltaServerConfig fast_config() {
    DeltaServerConfig config;
    config.anonymizer.required_docs = 3;
    config.anonymizer.min_common = 1;
    config.selector.sample_prob = 0.3;
    return config;
  }

  ServedResponse request(std::uint64_t user, std::size_t cat, std::size_t doc,
                         util::SimTime now) {
    const trace::DocRef ref{cat, doc};
    const auto url = site.url_for(ref);
    const Bytes body = site.generate(ref, user, now);
    return server.serve(user, url, as_view(body), now);
  }
};

TEST(DeltaServer, FirstRequestIsDirectAndCreatesClass) {
  Rig rig;
  const auto resp = rig.request(1, 0, 0, 0);
  EXPECT_EQ(resp.mode, ServedResponse::Mode::kDirect);
  EXPECT_TRUE(resp.class_created);
  EXPECT_EQ(resp.wire_body.size(), resp.doc_size);
  EXPECT_EQ(rig.server.num_classes(), 1u);
  // Anonymization has not completed: nothing published yet.
  EXPECT_FALSE(rig.server.published_base(resp.class_id).has_value());
}

TEST(DeltaServer, PublishesAfterAnonymizationAndServesDeltas) {
  Rig rig;
  util::SimTime now = 0;
  // First request creates the class; 3 more distinct users complete the
  // anonymization (N=3, owner excluded).
  rig.request(1, 0, 0, now);
  for (std::uint64_t user = 2; user <= 4; ++user) {
    now += util::kSecond;
    rig.request(user, 0, user % 10, now);
  }
  now += util::kSecond;
  const auto resp = rig.request(9, 0, 5, now);
  EXPECT_EQ(resp.mode, ServedResponse::Mode::kDelta);
  EXPECT_TRUE(resp.base_needed);  // user 9 has no base yet
  EXPECT_GT(resp.base_size, 0u);
  EXPECT_GT(resp.base_version, 0u);
  EXPECT_LT(resp.wire_body.size(), resp.doc_size / 3);
  EXPECT_TRUE(resp.wire_compressed);

  // Same user again: base already held, only the delta travels.
  now += util::kSecond;
  const auto again = rig.request(9, 0, 5, now);
  EXPECT_EQ(again.mode, ServedResponse::Mode::kDelta);
  EXPECT_FALSE(again.base_needed);
}

TEST(DeltaServer, DeltaAppliesToPublishedBase) {
  Rig rig;
  util::SimTime now = 0;
  rig.request(1, 0, 0, now);
  for (std::uint64_t user = 2; user <= 4; ++user) {
    rig.request(user, 0, 1, now += util::kSecond);
  }
  const trace::DocRef ref{0, 7};
  const auto url = rig.site.url_for(ref);
  const Bytes doc = rig.site.generate(ref, 42, now += util::kSecond);
  const auto resp = rig.server.serve(42, url, as_view(doc), now);
  ASSERT_EQ(resp.mode, ServedResponse::Mode::kDelta);
  const auto published = rig.server.published_base(resp.class_id);
  ASSERT_TRUE(published.has_value());
  EXPECT_EQ(published->version, resp.base_version);
  const Bytes raw = compress::decompress(as_view(resp.wire_body));
  EXPECT_EQ(delta::apply(published->bytes, as_view(raw)), doc);
}

TEST(DeltaServer, PublishedBaseContainsNoPrivateData) {
  Rig rig;
  util::SimTime now = 0;
  rig.request(1, 0, 0, now);
  for (std::uint64_t user = 2; user <= 4; ++user) {
    rig.request(user, 0, 0, now += util::kSecond);
  }
  const auto resp = rig.request(5, 0, 0, now += util::kSecond);
  const auto published = rig.server.published_base(resp.class_id);
  ASSERT_TRUE(published.has_value());
  const std::string text = util::to_string(published->bytes);
  // The owner's private payload must have been scrubbed.
  const std::string secret = rig.site.template_for(0).private_payload(1);
  EXPECT_EQ(text.find(secret), std::string::npos);
  EXPECT_EQ(text.find(std::string(trace::kPrivateMarker)), std::string::npos);
}

TEST(DeltaServer, WithoutAnonymizationPublishesImmediately) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  Rig rig(config);
  const auto first = rig.request(1, 0, 0, 0);
  EXPECT_EQ(first.mode, ServedResponse::Mode::kDirect);
  const auto second = rig.request(2, 0, 1, util::kSecond);
  EXPECT_EQ(second.mode, ServedResponse::Mode::kDelta);
}

TEST(DeltaServer, UncompressedDeltasWhenDisabled) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  config.compress_deltas = false;
  Rig rig(config);
  rig.request(1, 0, 0, 0);
  const auto resp = rig.request(2, 0, 1, util::kSecond);
  ASSERT_EQ(resp.mode, ServedResponse::Mode::kDelta);
  EXPECT_FALSE(resp.wire_compressed);
  EXPECT_EQ(resp.wire_body.size(), resp.delta_size);
}

TEST(DeltaServer, MetricsAccumulateConsistently) {
  Rig rig;
  util::SimTime now = 0;
  for (std::uint64_t user = 1; user <= 10; ++user) {
    rig.request(user, 0, user % 10, now += util::kSecond);
  }
  const auto& m = rig.server.metrics();
  EXPECT_EQ(m.requests, 10u);
  EXPECT_EQ(m.direct_responses + m.delta_responses, 10u);
  EXPECT_GT(m.direct_bytes, 0u);
  EXPECT_LE(m.wire_bytes, m.direct_bytes);
  EXPECT_GT(m.savings(), 0.0);
  EXPECT_GT(m.cpu_us_total, 0.0);
}

TEST(DeltaServer, BasicRebaseAfterConsecutiveLargeDeltas) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  config.basic_rebase_after = 2;
  config.basic_rebase_ratio = 0.5;
  config.grouping.match_threshold = 100.0;  // force everything into one class
  Rig rig(config);
  // Seed the class with a laptops doc.
  rig.request(1, 0, 0, 0);
  // Feed desktops docs (different template => large deltas vs the base).
  bool saw_rebase = false;
  for (std::uint64_t d = 0; d < 4; ++d) {
    const auto resp = rig.request(2, 1, d, (d + 1) * util::kSecond);
    saw_rebase |= resp.basic_rebase;
  }
  EXPECT_TRUE(saw_rebase);
  EXPECT_GT(rig.server.metrics().basic_rebases, 0u);
}

TEST(DeltaServer, GroupRebaseRespectsTimeout) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  config.selector.sample_prob = 1.0;
  config.rebase_timeout = 1000 * util::kSecond;
  Rig rig(config);
  util::SimTime now = 0;
  std::uint64_t rebases_early = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto resp = rig.request(i + 1, 0, i % 10, now += util::kSecond);
    rebases_early += resp.group_rebase;
  }
  EXPECT_EQ(rebases_early, 0u);  // timeout far away

  // Jump past the timeout; a rebase becomes possible.
  now += 2000 * util::kSecond;
  std::uint64_t rebases_late = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto resp = rig.request(i + 1, 0, i % 10, now += util::kSecond);
    rebases_late += resp.group_rebase;
  }
  EXPECT_GT(rig.server.metrics().group_rebases + rig.server.metrics().basic_rebases, 0u);
}

TEST(DeltaServer, ClientMustRefetchBaseAfterRebase) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  config.selector.sample_prob = 1.0;
  config.rebase_timeout = 0;  // rebase whenever a better candidate exists
  Rig rig(config);
  util::SimTime now = 0;
  rig.request(7, 0, 0, now);
  std::uint64_t base_fetches = 0;
  for (int i = 0; i < 12; ++i) {
    const auto resp = rig.request(7, 0, static_cast<std::size_t>(i) % 10,
                                  now += util::kSecond);
    if (resp.mode == ServedResponse::Mode::kDelta) base_fetches += resp.base_needed;
  }
  // At least the first fetch; more if any rebase bumped the version.
  EXPECT_GE(base_fetches, 1u);
}

TEST(DeltaServer, PublishedHistoryServesRecentVersionsOnly) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  config.rebase_timeout = 0;
  config.selector.sample_prob = 1.0;
  config.published_history = 2;
  Rig rig(config);
  util::SimTime now = 0;
  // Drive rebases by cycling documents.
  std::uint32_t max_version = 0;
  ClassId cls = 0;
  for (int i = 0; i < 20; ++i) {
    const auto resp = rig.request(1 + static_cast<std::uint64_t>(i) % 4, 0,
                                  static_cast<std::size_t>(i) % 10, now += util::kSecond);
    if (resp.base_version > 0) {
      max_version = std::max(max_version, resp.base_version);
      cls = resp.class_id;
    }
  }
  ASSERT_GT(max_version, 2u);  // rebases happened
  // Current and previous versions are retained; ancient ones are gone.
  EXPECT_TRUE(rig.server.fetch_base(cls, max_version).has_value());
  EXPECT_TRUE(rig.server.fetch_base(cls, max_version - 1).has_value());
  EXPECT_FALSE(rig.server.fetch_base(cls, 1).has_value());
  EXPECT_FALSE(rig.server.fetch_base(cls, max_version + 5).has_value());
  EXPECT_FALSE(rig.server.fetch_base(9999, 1).has_value());
}

TEST(DeltaServer, StorageStaysFarBelowClasslessStorage) {
  // The paper's scalability argument: one base per class vs one per
  // (user, document).
  Rig rig;
  util::SimTime now = 0;
  for (std::uint64_t user = 1; user <= 20; ++user) {
    for (std::size_t d = 0; d < 5; ++d) {
      rig.request(user, d % 2, d, now += util::kSecond);
    }
  }
  EXPECT_LT(rig.server.storage_bytes() * 3, rig.server.classless_storage_bytes());
}

TEST(DeltaServer, StorageCountsTheAnonymizingBaseOnce) {
  // The class-creating request leaves two buffers: the working base, which
  // the anonymization in progress aliases, and the selector's sample.
  Rig rig(DeltaServerConfig{});
  const auto resp = rig.request(1, 0, 0, 0);
  ASSERT_TRUE(resp.class_created);
  EXPECT_EQ(rig.server.storage_bytes(), 2 * resp.doc_size);
}

TEST(DeltaServer, IndexBytesCountsEveryIndex) {
  // An 11,264-byte page: each estimator indexes 1,408 slots under an
  // 8,192-entry head table; each encoder has the fixed 256 KB table.
  constexpr std::size_t kEstimatorIndex = (8192 + 1408) * 4;
  constexpr std::size_t kEncoderIndex = std::size_t{256} << 10;
  const Bytes page = to_bytes(std::string(11264, 'p'));
  for (const bool anonymize : {true, false}) {
    auto config = Rig::fast_config();
    config.anonymize = anonymize;
    Rig rig(config);
    rig.server.serve(1, rig.site.url_for(trace::DocRef{0, 0}), as_view(page), 0);
    // Working estimator + selector sample, and either the anonymizer's
    // encoder or the transmit encoder.
    EXPECT_EQ(rig.server.index_bytes(), 2 * kEstimatorIndex + kEncoderIndex);
    const auto* gauge = rig.server.obs().registry().find_gauge("cbde_server_index_bytes");
    ASSERT_NE(gauge, nullptr);
    EXPECT_EQ(gauge->value(), static_cast<std::int64_t>(2 * kEstimatorIndex + kEncoderIndex));
  }
}

TEST(DeltaServerPool, ThreadedStressMatchesSerialTotals) {
  // N worker threads x M classes through the DeltaWorkerPool. Assertions are
  // order-independent (thread interleaving changes which individual request
  // is served how, but not the conserved totals), and every delta response
  // must apply against the base version it reports. Run under the tsan
  // preset by ci.sh.
  auto config = Rig::fast_config();
  config.selector.sample_prob = 0.1;
  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 8;
  sconfig.categories = {"laptops", "desktops", "tablets", "phones"};
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  DeltaServer server(config, std::move(rules));

  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kRequests = 160;
  struct Sent {
    std::size_t doc_bytes;
    std::future<ServedResponse> response;
  };
  std::vector<Sent> sent;
  sent.reserve(kRequests);
  {
    DeltaWorkerPool pool(server, kWorkers, /*queue_capacity=*/16);
    EXPECT_EQ(pool.workers(), kWorkers);
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
      // The delta must apply against the exact version it reports (which a
      // concurrent rebase may have since superseded but not yet evicted).
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

  // Conserved totals must match the serial bookkeeping exactly.
  const auto& m = server.metrics();
  EXPECT_EQ(m.requests, kRequests);
  EXPECT_EQ(m.direct_responses + m.delta_responses, kRequests);
  EXPECT_EQ(m.direct_responses, direct);
  EXPECT_EQ(m.delta_responses, deltas);
  EXPECT_EQ(m.direct_bytes, doc_bytes_total);
  EXPECT_EQ(m.wire_bytes, wire_bytes_total);
  EXPECT_EQ(m.base_wire_bytes, base_wire_total);
  EXPECT_GT(deltas, kRequests / 2);  // steady state actually reached
}

TEST(DeltaServerPool, SubmitAfterShutdownThrows) {
  auto config = Rig::fast_config();
  trace::SiteConfig sconfig;
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  DeltaServer server(config, std::move(rules));
  DeltaWorkerPool pool(server, 2);
  const trace::DocRef ref{0, 0};
  auto f = pool.submit(1, site.url_for(ref), site.generate(ref, 1, 0), 0);
  EXPECT_EQ(f.get().mode, ServedResponse::Mode::kDirect);
  pool.shutdown();
  EXPECT_THROW(pool.submit(1, site.url_for(ref), site.generate(ref, 1, 0), 0),
               std::runtime_error);
}

// PR 3 regression: destroying the pool while requests are still queued must
// leave every outstanding future completed (value or exception) — never an
// abandoned promise the consumer would block on forever.
TEST(DeltaServerPool, DestructionWithQueuedRequestsCompletesEveryFuture) {
  auto config = Rig::fast_config();
  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 6;
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  DeltaServer server(config, std::move(rules));

  constexpr std::size_t kRequests = 48;
  std::vector<std::future<ServedResponse>> futures;
  futures.reserve(kRequests);
  {
    // One worker and a deep queue: the destructor runs with most of the
    // requests still waiting.
    DeltaWorkerPool pool(server, 1, /*queue_capacity=*/kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
      const trace::DocRef ref{0, i % sconfig.docs_per_category};
      futures.push_back(pool.submit(1 + i % 5, site.url_for(ref),
                                    site.generate(ref, 1 + i % 5, 0),
                                    static_cast<util::SimTime>(i)));
    }
  }  // ~DeltaWorkerPool: drain + join

  std::size_t completed = 0;
  for (auto& f : futures) {
    ASSERT_TRUE(f.valid());
    // Already ready — shutdown joined the workers, nothing is pending.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_NO_THROW((void)f.get());
    ++completed;
  }
  EXPECT_EQ(completed, kRequests);
  EXPECT_EQ(server.metrics().requests, kRequests);
}

// PR 3 regression: shutdown() raced from several threads used to double-join
// the workers (the loser saw stopping_ set but the thread vector still
// populated). Now exactly one caller joins and the rest block until it is
// done, so *every* shutdown() return means the workers are gone.
TEST(DeltaServerPool, ConcurrentShutdownIsSafe) {
  auto config = Rig::fast_config();
  trace::SiteConfig sconfig;
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  DeltaServer server(config, std::move(rules));

  DeltaWorkerPool pool(server, 2, /*queue_capacity=*/8);
  std::vector<std::future<ServedResponse>> futures;
  for (std::size_t i = 0; i < 8; ++i) {
    const trace::DocRef ref{0, i % sconfig.docs_per_category};
    futures.push_back(pool.submit(1, site.url_for(ref), site.generate(ref, 1, 0),
                                  static_cast<util::SimTime>(i)));
  }
  std::thread racer_a([&pool] { pool.shutdown(); });
  std::thread racer_b([&pool] { pool.shutdown(); });
  pool.shutdown();
  racer_a.join();
  racer_b.join();

  for (auto& f : futures) EXPECT_NO_THROW((void)f.get());
  const trace::DocRef ref{0, 0};
  EXPECT_THROW(pool.submit(1, site.url_for(ref), site.generate(ref, 1, 0), 0),
               std::runtime_error);
  pool.shutdown();  // still idempotent afterwards
}

// Producers racing shutdown(): each submit() either throws (pool already
// stopping) or yields a future that completes. Accounting both paths must
// cover every attempt — a leaked future would hang get() and fail the test
// by timeout.
TEST(DeltaServerPool, SubmitRacingShutdownNeverLeaksAFuture) {
  auto config = Rig::fast_config();
  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 4;
  const trace::SiteModel site(sconfig);
  http::RuleBook rules;
  rules.add_rule(site.config().host, site.partition_rule());
  DeltaServer server(config, std::move(rules));

  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kPerProducer = 16;
  // Pre-generate outside the producers so they only exercise the pool.
  std::vector<Bytes> docs;
  std::vector<http::Url> urls;
  for (std::size_t i = 0; i < kPerProducer; ++i) {
    const trace::DocRef ref{0, i % sconfig.docs_per_category};
    urls.push_back(site.url_for(ref));
    docs.push_back(site.generate(ref, 1, 0));
  }

  DeltaWorkerPool pool(server, 2, /*queue_capacity=*/4);
  std::atomic<std::size_t> served{0};
  std::atomic<std::size_t> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        try {
          auto f = pool.submit(1 + p, urls[i], docs[i],
                               static_cast<util::SimTime>(i));
          (void)f.get();  // must become ready: served before join
          served.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::runtime_error&) {
          // pool was already stopping
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  pool.shutdown();
  for (auto& t : producers) t.join();
  EXPECT_EQ(served.load(std::memory_order_relaxed) +
                rejected.load(std::memory_order_relaxed),
            kProducers * kPerProducer);
  EXPECT_EQ(server.metrics().requests, served.load(std::memory_order_relaxed));
}

TEST(DeltaServer, FallsBackToDirectWhenDeltaUseless) {
  auto config = Rig::fast_config();
  config.anonymize = false;
  config.grouping.match_threshold = 100.0;  // everything lands in class 1
  config.basic_rebase_after = 1000;         // keep the stale base
  Rig rig(config);
  rig.request(1, 0, 0, 0);
  // Random bytes: the delta against an HTML base is bigger than the doc.
  util::Rng rng(5);
  Bytes noise(20000);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
  const auto url = rig.site.url_for(trace::DocRef{0, 9});
  const auto resp = rig.server.serve(2, url, as_view(noise), util::kSecond);
  EXPECT_EQ(resp.mode, ServedResponse::Mode::kDirect);
  EXPECT_EQ(resp.wire_body, noise);
}

}  // namespace
}  // namespace cbde::core
