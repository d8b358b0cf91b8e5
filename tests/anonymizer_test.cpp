#include <gtest/gtest.h>

#include <string>

#include "core/anonymizer.hpp"
#include "trace/document.hpp"

namespace cbde::core {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

struct Portal {
  trace::DocumentTemplate tmpl{21, trace::TemplateConfig{}};

  Bytes doc_for(std::uint64_t user) const { return tmpl.generate(1, user, 0); }
};

bool contains(const Bytes& haystack, const std::string& needle) {
  return util::to_string(as_view(haystack)).find(needle) != std::string::npos;
}

TEST(Anonymizer, RemovesOwnersPrivateChunks) {
  Portal portal;
  const Bytes base = portal.doc_for(100);
  AnonymizerConfig config;
  config.min_common = 1;
  config.required_docs = 4;
  Anonymizer anon(config);
  anon.begin(base, /*owner=*/100);
  for (std::uint64_t user = 200; user < 204; ++user) {
    EXPECT_TRUE(anon.observe(user, as_view(portal.doc_for(user))));
  }
  ASSERT_TRUE(anon.ready());
  const Bytes clean = anon.finalize();
  EXPECT_LT(clean.size(), base.size());
  EXPECT_TRUE(contains(base, portal.tmpl.private_payload(100)));
  EXPECT_FALSE(contains(clean, portal.tmpl.private_payload(100)));
}

TEST(Anonymizer, KeepsSharedSkeleton) {
  Portal portal;
  const Bytes base = portal.doc_for(100);
  AnonymizerConfig config;
  config.min_common = 2;
  config.required_docs = 5;
  Anonymizer anon(config);
  anon.begin(base, 100);
  for (std::uint64_t user = 300; user < 305; ++user) {
    anon.observe(user, as_view(portal.doc_for(user)));
  }
  const Bytes clean = anon.finalize();
  // The skeleton dominates the page; most of the base must survive.
  EXPECT_GT(clean.size() * 10, base.size() * 7);
}

TEST(Anonymizer, OwnerAndDuplicateUsersNotCounted) {
  Portal portal;
  Anonymizer anon(AnonymizerConfig{1, 3});
  anon.begin(portal.doc_for(100), 100);
  EXPECT_FALSE(anon.observe(100, as_view(portal.doc_for(100))));  // owner
  EXPECT_TRUE(anon.observe(200, as_view(portal.doc_for(200))));
  EXPECT_FALSE(anon.observe(200, as_view(portal.doc_for(200))));  // duplicate
  EXPECT_EQ(anon.users_observed(), 1u);
  EXPECT_FALSE(anon.ready());
}

TEST(Anonymizer, NotReadyUntilNDistinctUsers) {
  Portal portal;
  Anonymizer anon(AnonymizerConfig{2, 4});
  anon.begin(portal.doc_for(1), 1);
  EXPECT_THROW(anon.finalize(), std::invalid_argument);
  for (std::uint64_t user = 10; user < 14; ++user) {
    anon.observe(user, as_view(portal.doc_for(user)));
  }
  EXPECT_TRUE(anon.ready());
  EXPECT_NO_THROW(anon.finalize());
  EXPECT_FALSE(anon.in_progress());
}

TEST(Anonymizer, ObservationsIgnoredWhenNotInProgress) {
  Portal portal;
  Anonymizer anon(AnonymizerConfig{1, 2});
  EXPECT_FALSE(anon.observe(5, as_view(portal.doc_for(5))));
  EXPECT_FALSE(anon.in_progress());
}

TEST(Anonymizer, HigherMRemovesMoreBytes) {
  Portal portal;
  const Bytes base = portal.doc_for(50);
  std::vector<Bytes> docs;
  for (std::uint64_t user = 60; user < 68; ++user) docs.push_back(portal.doc_for(user));

  const Bytes m0 = anonymize_against(as_view(base), docs, 0);
  const Bytes m1 = anonymize_against(as_view(base), docs, 1);
  const Bytes m4 = anonymize_against(as_view(base), docs, 4);
  const Bytes m8 = anonymize_against(as_view(base), docs, 8);
  EXPECT_EQ(m0, base);  // M=0: "no privacy"
  EXPECT_LE(m1.size(), m0.size());
  EXPECT_LE(m4.size(), m1.size());
  EXPECT_LE(m8.size(), m4.size());
}

TEST(Anonymizer, AnonymizedBaseStillDeltaEncodesWell) {
  // §VI-B Table IV: anonymization costs only a small delta increase.
  Portal portal;
  const Bytes base = portal.doc_for(50);
  std::vector<Bytes> docs;
  for (std::uint64_t user = 60; user < 65; ++user) docs.push_back(portal.doc_for(user));
  const Bytes clean = anonymize_against(as_view(base), docs, 2);

  const Bytes target = portal.doc_for(99);
  const auto plain_delta = delta::encode(as_view(base), as_view(target)).delta.size();
  const auto anon_delta = delta::encode(as_view(clean), as_view(target)).delta.size();
  EXPECT_GE(anon_delta, plain_delta);        // base shrank, deltas can only grow
  EXPECT_LT(anon_delta, plain_delta * 2);    // ... but only modestly
  // And the anonymized base must still be worth using at all.
  EXPECT_LT(anon_delta * 3, target.size());
}

TEST(Anonymizer, SharedSecretAmongFewUsersRemovedWithHigherM) {
  // §V corporate-credit-card scenario: a secret shared by 2 of N=6 users
  // leaks with M=1 but is removed with M=3.
  const std::string skeleton = trace::synth_prose(7, 20000);
  const std::string secret = "PRIV:SHARED-CORPORATE-CARD-4242424242424242";
  auto doc_with = [&](std::uint64_t user, bool leak) {
    std::string s = skeleton + "<div>" + (leak ? secret : trace::synth_prose(user, 64)) +
                    "</div>" + trace::synth_prose(user * 3 + 1, 400);
    return to_bytes(s);
  };
  const Bytes base = doc_with(1, true);
  std::vector<Bytes> docs;
  docs.push_back(doc_with(2, true));  // the other card holder
  for (std::uint64_t user = 3; user < 8; ++user) docs.push_back(doc_with(user, false));

  const Bytes m1 = anonymize_against(as_view(base), docs, 1);
  const Bytes m3 = anonymize_against(as_view(base), docs, 3);
  EXPECT_TRUE(util::to_string(as_view(m1)).find("4242424242424242") != std::string::npos);
  EXPECT_TRUE(util::to_string(as_view(m3)).find("4242424242424242") == std::string::npos);
}

TEST(Anonymizer, ConfigValidation) {
  EXPECT_THROW(Anonymizer(AnonymizerConfig{5, 4}),
               std::invalid_argument);  // M > N
  EXPECT_THROW(Anonymizer(AnonymizerConfig{0, 0}),
               std::invalid_argument);  // N == 0
}

TEST(Anonymizer, CountersMatchObservations) {
  Portal portal;
  AnonymizerConfig config;
  config.min_common = 1;
  config.required_docs = 3;
  Anonymizer anon(config);
  const Bytes base = portal.doc_for(1);
  anon.begin(base, 1);
  for (std::uint64_t user = 2; user < 5; ++user) {
    anon.observe(user, as_view(portal.doc_for(user)));
  }
  const auto& counters = anon.counters();
  EXPECT_EQ(counters.size(), (base.size() + 3) / 4);
  for (const auto c : counters) EXPECT_LE(c, 3u);
  // The skeleton chunks should be common with everyone.
  std::size_t full_count = 0;
  for (const auto c : counters) full_count += (c == 3);
  EXPECT_GT(full_count, counters.size() / 2);
}

}  // namespace
}  // namespace cbde::core
