#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_server.hpp"
#include "core/delta_worker_pool.hpp"
#include "delta/delta.hpp"
#include "http/url.hpp"
#include "trace/document.hpp"
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
  // base_size reports the base encoded against, needed or not.
  EXPECT_EQ(again.base_size, resp.base_size);
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
  Rig rig(config);
  util::SimTime now = 0;
  // Every base the class published, by version. Unanonymized, a request
  // publishes at most one version, so the window is checked after each
  // publication: after the first and the second too, while slots are empty.
  std::map<std::uint32_t, Bytes> published;
  ClassId cls = 0;
  // Drive rebases by cycling documents.
  for (int i = 0; i < 20; ++i) {
    const auto resp = rig.request(1 + static_cast<std::uint64_t>(i) % 4, 0,
                                  static_cast<std::size_t>(i) % 10, now += util::kSecond);
    if (i == 0) cls = resp.class_id;
    ASSERT_EQ(resp.class_id, cls);
    const auto base = rig.server.published_base(cls);
    ASSERT_TRUE(base.has_value());
    const std::uint32_t newest = base->version;
    published.emplace(newest, Bytes(base->bytes.begin(), base->bytes.end()));
    // The three newest versions are retained, each as published. Version 0,
    // aged-out versions and versions not yet published are absent, including
    // those that would share a slot with a retained one.
    for (std::uint32_t v = 0; v <= newest + 3; ++v) {
      const auto fetched = rig.server.fetch_base(cls, v);
      if (v >= 1 && v <= newest && newest - v < 3) {
        ASSERT_TRUE(fetched.has_value()) << "v" << v << " of " << newest;
        EXPECT_EQ(*fetched, published.at(v)) << "v" << v << " of " << newest;
      } else {
        EXPECT_FALSE(fetched.has_value()) << "v" << v << " of " << newest;
      }
    }
  }
  // The class passed through one and two published versions, and rebases
  // published more versions than are kept.
  ASSERT_TRUE(published.contains(1) && published.contains(2));
  const std::uint32_t newest = published.rbegin()->first;
  ASSERT_GT(newest, 3u);
  EXPECT_FALSE(rig.server.fetch_base(cls, newest - 3).has_value());
  EXPECT_FALSE(rig.server.fetch_base(cls, 1).has_value());
  EXPECT_FALSE(rig.server.fetch_base(cls, newest + 5).has_value());
  EXPECT_FALSE(rig.server.fetch_base(9999, 1).has_value());
}

TEST(DeltaServer, StorageCountsTheAnonymizingBaseOnce) {
  // The class-creating request leaves one buffer: the selector's sample,
  // which is the working base. The anonymization in progress aliases it;
  // with anonymization off, the published base is that same buffer.
  for (const bool anonymize : {true, false}) {
    DeltaServerConfig config;
    config.anonymize = anonymize;
    Rig rig(config);
    const auto resp = rig.request(1, 0, 0, 0);
    ASSERT_TRUE(resp.class_created);
    EXPECT_EQ(rig.server.storage_bytes(), resp.doc_size) << "anonymize " << anonymize;
  }
}

TEST(DeltaServer, IndexBytesCountsEveryIndex) {
  // An 11,264-byte page of one repeated byte, so every index has 2-byte
  // units. The estimator's 1,408 slots share one hash: 8,192 buckets (128
  // bitmap words and ranks, 10 bytes each), one non-empty (two run offsets)
  // and 4 kept slots. The encoder's windows share one fingerprint: the 8 KB
  // bitmap, 1,024 ranks, the sentinel and one occupied slot.
  constexpr std::size_t kEstimatorIndex = 128 * 10 + 2 * 2 + 4 * 2;
  constexpr std::size_t kEncoderIndex = 8192 + 2 * (1024 + 2);
  const Bytes page = to_bytes(std::string(11264, 'p'));
  for (const bool anonymize : {true, false}) {
    auto config = Rig::fast_config();
    config.anonymize = anonymize;
    Rig rig(config);
    rig.server.serve(1, rig.site.url_for(trace::DocRef{0, 0}), as_view(page), 0);
    // The selector sample, which is the working estimator, and either the
    // anonymizer's encoder or the transmit encoder.
    EXPECT_EQ(rig.server.index_bytes(), kEstimatorIndex + kEncoderIndex);
    EXPECT_EQ(rig.server.obs().registry().snapshot().at("cbde_server_index_bytes").gauge,
              static_cast<std::int64_t>(kEstimatorIndex + kEncoderIndex));
  }
}

TEST(DeltaServer, IndexBoundedByStorage) {
  // The paper's case for classes is one stored base per class (§IV). A site
  // of many classes over small pages, anonymization on: the match indexes
  // over the bases and samples stay within 5/4 of them (0.95 with 16-bit
  // index entries and the working base shared with its selector sample;
  // 1.52 with 32-bit entries and a working copy). Every class publishes (its
  // creator and N = 5 other users) and serves two more requests.
  trace::SiteConfig site_config;
  site_config.categories.clear();
  for (int c = 0; c < 64; ++c) site_config.categories.push_back("c" + std::to_string(c));
  site_config.docs_per_category = 8;
  constexpr std::size_t kPage = 11 * 1024;
  site_config.doc_template.skeleton_bytes = kPage * 86 / 100;
  site_config.doc_template.doc_unique_bytes = kPage * 6 / 100;
  site_config.doc_template.volatile_bytes = kPage * 25 / 1000;
  site_config.doc_template.personal_bytes = kPage / 100;
  const trace::SiteModel site(site_config);
  DeltaServer server(DeltaServerConfig{}, Rig::rules(site));
  util::SimTime now = 0;
  std::size_t deltas = 0;
  for (std::uint64_t user = 1; user <= 8; ++user) {
    for (std::size_t cat = 0; cat < site.num_categories(); ++cat) {
      const trace::DocRef ref{cat, user % site_config.docs_per_category};
      const Bytes body = site.generate(ref, user, now);
      const auto resp = server.serve(user, site.url_for(ref), as_view(body), now);
      deltas += resp.mode == ServedResponse::Mode::kDelta ? 1 : 0;
      now += 50 * util::kMillisecond;
    }
  }
  ASSERT_GE(server.num_classes(), site.num_categories());
  EXPECT_GT(deltas, site.num_categories());  // the classes publish and serve
  EXPECT_LE(4 * server.index_bytes(), 5 * server.storage_bytes())
      << "index " << server.index_bytes() << " B over " << server.storage_bytes() << " B";
}

/// Serves `user` document `doc` of category `cat` and checks that the class
/// then holds that document as its working base and as its only selector
/// sample: one buffer and one estimator index, beside the older published
/// bases it retains. Anonymization off, so the newest published base is the
/// working one.
ServedResponse serve_and_expect_working_sample(Rig& rig, std::uint64_t user, std::size_t cat,
                                               std::size_t doc, util::SimTime now) {
  const trace::DocRef ref{cat, doc};
  const Bytes body = rig.site.generate(ref, user, now);
  const ServedResponse resp = rig.server.serve(user, rig.site.url_for(ref), as_view(body), now);
  EXPECT_EQ(rig.server.num_classes(), 1u);
  const auto summaries = rig.server.class_summaries();
  EXPECT_EQ(summaries.size(), 1u);
  if (summaries.empty()) return resp;
  const ClassSummary& summary = summaries.front();
  EXPECT_TRUE(summary.working_is_sample);
  EXPECT_EQ(summary.selector_samples, 1u);
  EXPECT_EQ(summary.working_size, body.size());
  std::size_t older = 0;
  for (std::uint32_t v = 1; v < summary.published_version; ++v) {
    if (const auto base = rig.server.fetch_base(summary.id, v)) older += base->size();
  }
  EXPECT_EQ(rig.server.storage_bytes(), body.size() + older);
  EXPECT_EQ(rig.server.index_bytes(),
            delta::Estimator(body).index_bytes() + delta::Encoder(body).index_bytes());
  return resp;
}

TEST(DeltaServer, WorkingBaseIsASelectorSample) {
  // Class creation, a basic rebase and a group rebase each make a selector
  // sample the working base. The class holds it once, not as a second copy
  // with a second index.
  auto config = Rig::fast_config();
  config.anonymize = false;
  {
    // Creation, then a basic rebase: every request joins the one class, and
    // two large deltas in a row flush the selector and admit the document.
    config.basic_rebase_after = 2;
    config.basic_rebase_ratio = 0.5;
    config.grouping.match_threshold = 100.0;
    config.rebase_timeout = 1000000 * util::kSecond;
    Rig rig(config);
    ASSERT_TRUE(serve_and_expect_working_sample(rig, 1, 0, 0, 0).class_created);
    // Pages of another category are large deltas against the first base.
    const trace::DocRef ref{1, 0};
    const Bytes body = rig.site.generate(ref, 2, util::kSecond);
    EXPECT_FALSE(
        rig.server.serve(2, rig.site.url_for(ref), as_view(body), util::kSecond).basic_rebase);
    EXPECT_TRUE(serve_and_expect_working_sample(rig, 2, 1, 1, 2 * util::kSecond).basic_rebase);
  }
  {
    // A group rebase: one sample kept and every request sampled, so the
    // best sample is the newest document, and the rebase takes it at once.
    config = Rig::fast_config();
    config.anonymize = false;
    config.selector.sample_prob = 1.0;
    config.selector.max_samples = 1;
    config.rebase_timeout = 0;
    Rig rig(config);
    ASSERT_TRUE(serve_and_expect_working_sample(rig, 1, 0, 0, 0).class_created);
    for (std::uint64_t user = 2; user <= 5; ++user) {
      const auto resp = serve_and_expect_working_sample(
          rig, user, 0, user, static_cast<util::SimTime>(user) * util::kSecond);
      EXPECT_TRUE(resp.group_rebase) << "user " << user;
    }
  }
}

TEST(DeltaServer, ScrapeReadsStorageAndClassStateWithoutAnAudit) {
  // The collected gauges and counts come from server state at scrape time:
  // a snapshot taken before any accessor runs already carries them.
  Rig rig;
  util::SimTime now = 0;
  for (std::uint64_t user = 1; user <= 6; ++user) {
    for (std::size_t cat = 0; cat < 2; ++cat) {
      rig.request(user, cat, user % 4, now);
      now += util::kSecond;
    }
  }
  const auto scrape = rig.server.obs().registry().snapshot();
  const auto gauge_of = [&scrape](const char* name) { return scrape.at(name).gauge; };
  const auto count_of = [&scrape](const char* name) { return scrape.at(name).counter; };
  const std::int64_t storage = gauge_of("cbde_server_storage_bytes");
  const std::int64_t index = gauge_of("cbde_server_index_bytes");
  EXPECT_GT(storage, 0);
  EXPECT_EQ(storage, static_cast<std::int64_t>(rig.server.storage_bytes()));
  EXPECT_GT(index, 0);
  EXPECT_EQ(index, static_cast<std::int64_t>(rig.server.index_bytes()));
  EXPECT_EQ(gauge_of("cbde_server_classes"),
            static_cast<std::int64_t>(rig.server.num_classes()));
  EXPECT_EQ(count_of("cbde_server_classes_created_total"),
            rig.server.grouping_stats().classes_created);
  std::size_t samples = 0;
  for (const ClassSummary& summary : rig.server.class_summaries()) {
    samples += summary.selector_samples;
  }
  EXPECT_GE(count_of("cbde_selector_sampled_total"), samples);
  EXPECT_GT(count_of("cbde_selector_observed_total"), 0u);
}

TEST(DeltaServer, ClassIdsAreDenseFromOne) {
  Rig rig;
  util::SimTime now = 0;
  const std::size_t cats = rig.site.num_categories();
  for (std::size_t i = 0; i < 30; ++i) {
    now += util::kSecond;
    rig.request(1 + i % 7, i % cats, (i * 7) % rig.site.config().docs_per_category, now);
  }
  const auto summaries = rig.server.class_summaries();
  ASSERT_GT(summaries.size(), 1u);
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    EXPECT_EQ(summaries[i].id, i + 1);  // 1, 2, 3, ... in creation order
  }
}

/// Serves 40 pages of one template under www.foo.com, alternating the
/// hint-parts in `hints`; returns the responses.
std::vector<ServedResponse> serve_one_template(DeltaServer& server,
                                               const std::vector<std::string>& hints) {
  trace::TemplateConfig tconfig;
  tconfig.skeleton_bytes = 20000;
  tconfig.doc_unique_bytes = 800;
  const trace::DocumentTemplate tmpl(42, tconfig);
  std::vector<ServedResponse> out;
  for (std::size_t i = 0; i < 40; ++i) {
    const std::uint64_t doc = i % 5;
    const std::uint64_t user = 2 + i % 7;
    const util::SimTime now = static_cast<util::SimTime>(i) * util::kSecond;
    const auto url = http::parse_url("www.foo.com/" + hints[i % hints.size()] +
                                     "?id=" + std::to_string(doc));
    const Bytes body = tmpl.generate(doc, user, now);
    out.push_back(server.serve(user, url, as_view(body), now));
  }
  return out;
}

DeltaServer one_template_server() {
  DeltaServerConfig config;
  config.anonymize = false;
  http::RuleBook rules;
  rules.add_rule("www.foo.com", http::PartitionRule(R"(^/([^/?]+)\?(.*)$)"));
  return DeltaServer(config, std::move(rules));
}

TEST(DeltaServer, HintsOfOneTemplateShareOneClass) {
  // §III's fallback: a request whose hint-part has no class yet is grouped
  // against every class of its server-part. Two hints serving one template
  // therefore end in one class, and their deltas name one published base.
  DeltaServer two_hints = one_template_server();
  const auto responses = serve_one_template(two_hints, {"laptops", "desktops"});
  EXPECT_EQ(two_hints.num_classes(), 1u);
  const ClassId cls = responses.front().class_id;
  EXPECT_FALSE(responses[1].class_created);
  EXPECT_GE(responses[1].grouping_tries, 1u);  // probed the laptops class
  std::size_t deltas = 0;
  for (const ServedResponse& resp : responses) {
    EXPECT_EQ(resp.class_id, cls);
    if (resp.mode != ServedResponse::Mode::kDelta) continue;
    ++deltas;
    EXPECT_EQ(resp.base_version, 1u);
  }
  EXPECT_EQ(deltas, responses.size() - 1);

  // The server stores what one hint alone would have made it store: one
  // class's bases and samples, not one per hint.
  DeltaServer one_hint = one_template_server();
  serve_one_template(one_hint, {"laptops"});
  EXPECT_EQ(two_hints.storage_bytes(), one_hint.storage_bytes());
  EXPECT_EQ(two_hints.metrics().wire_bytes, one_hint.metrics().wire_bytes);
  EXPECT_EQ(two_hints.metrics().base_wire_bytes, one_hint.metrics().base_wire_bytes);
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
  // A reader snapshotting the ledger and scraping the registry while
  // requests are in flight: each request commits all of its ledger counters
  // in one critical section, and a scrape reads the ledger in one critical
  // section, so every snapshot satisfies the conservation identities.
  std::atomic<bool> serving{true};
  std::size_t snapshots = 0;
  std::size_t inconsistent = 0;
  std::size_t scrapes_inconsistent = 0;
  std::thread reader([&] {
    do {
      const PipelineMetrics m = server.metrics();
      ++snapshots;
      if (m.requests != m.direct_responses + m.delta_responses ||
          m.wire_bytes > m.direct_bytes) {
        ++inconsistent;
      }
      const auto scrape = server.obs().registry().snapshot();
      const auto value = [&scrape](const char* name) { return scrape.at(name).counter; };
      if (value("cbde_server_requests_total") !=
              value("cbde_server_direct_responses_total") +
                  value("cbde_server_delta_responses_total") ||
          value("cbde_server_wire_bytes_total") > value("cbde_server_direct_bytes_total")) {
        ++scrapes_inconsistent;
      }
    } while (serving.load(std::memory_order_acquire));
  });
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
  serving.store(false, std::memory_order_release);
  reader.join();
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(inconsistent, 0u) << "of " << snapshots << " snapshots";
  EXPECT_EQ(scrapes_inconsistent, 0u) << "of " << snapshots << " scrapes";

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

TEST(DeltaServerPool, ZeroWorkersMeansOnePerCore) {
  Rig rig;
  DeltaWorkerPool pool(rig.server, /*workers=*/0);
  EXPECT_EQ(pool.workers(),
            std::max<std::size_t>(std::thread::hardware_concurrency(), 1));
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
  EXPECT_GT(resp.base_size, 0u);  // encoded against the base, then fell back
}

}  // namespace
}  // namespace cbde::core
