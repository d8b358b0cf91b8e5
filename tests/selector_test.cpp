#include <gtest/gtest.h>

#include <string>

#include "core/basefile_selector.hpp"
#include "trace/document.hpp"
#include "util/rng.hpp"

namespace cbde::core {
namespace {

using util::Bytes;
using util::as_view;
using util::to_bytes;

/// Documents built around a common core with graded coverage: doc k shares
/// `common` and carries (n - k) * `extra` bytes of content unique to it.
/// A delta from base i to target j pays only for what j has and i lacks, so
/// the sum-of-deltas score of candidate i is C - unique(i): doc 0 (the most
/// inclusive document) is objectively the best base-file, doc n-1 the worst,
/// with a deterministic margin of `extra` bytes per rank.
std::vector<Bytes> graded_docs(std::size_t n, std::size_t common_kb = 8,
                               std::size_t extra = 512) {
  const std::string common = trace::synth_prose(42, common_kb * 1024);
  std::vector<Bytes> docs;
  for (std::size_t k = 0; k < n; ++k) {
    std::string s = common;
    s += trace::synth_prose(1000 + k, extra * (n - k));
    docs.push_back(to_bytes(s));
  }
  return docs;
}

/// Corpus where base quality genuinely varies: each document carries a
/// per-document subset of a shared paragraph pool, so a base covering more
/// paragraphs serves every target with smaller deltas.
std::vector<Bytes> subset_docs(std::size_t n, std::size_t pool = 24,
                               std::size_t paragraph_bytes = 700) {
  std::vector<std::string> paragraphs;
  for (std::size_t p = 0; p < pool; ++p) {
    paragraphs.push_back(trace::synth_prose(5000 + p, paragraph_bytes));
  }
  std::vector<Bytes> docs;
  util::Rng rng(321);
  for (std::size_t k = 0; k < n; ++k) {
    std::string s;
    for (std::size_t p = 0; p < pool; ++p) {
      if (rng.next_double() < 0.75) s += paragraphs[p];
    }
    s += trace::synth_prose(9000 + k, 256);  // a little unique content
    docs.push_back(to_bytes(s));
  }
  return docs;
}

TEST(Selector, AdmitAlwaysStores) {
  BaseFileSelector sel(SelectorConfig{}, 1);
  sel.admit(as_view(to_bytes("doc one")));
  EXPECT_EQ(sel.stored(), 1u);
  EXPECT_NE(sel.best(), nullptr);
}

TEST(Selector, ObserveSamplesWithProbabilityP) {
  SelectorConfig config;
  config.sample_prob = 0.2;
  config.max_samples = 1000;  // no evictions
  BaseFileSelector sel(config, 2);
  const Bytes doc = to_bytes("same doc");
  for (int i = 0; i < 2000; ++i) sel.observe(as_view(doc));
  EXPECT_EQ(sel.stats().observed, 2000u);
  EXPECT_NEAR(static_cast<double>(sel.stats().sampled), 400.0, 60.0);
}

TEST(Selector, ZeroProbabilityNeverSamples) {
  SelectorConfig config;
  config.sample_prob = 0.0;
  BaseFileSelector sel(config, 3);
  for (int i = 0; i < 100; ++i) sel.observe(as_view(to_bytes("doc")));
  EXPECT_EQ(sel.stored(), 0u);
  EXPECT_EQ(sel.best(), nullptr);
  EXPECT_EQ(sel.best_score(), 0.0);
}

TEST(Selector, NeverStoresMoreThanK) {
  SelectorConfig config;
  config.sample_prob = 1.0;
  config.max_samples = 5;
  BaseFileSelector sel(config, 4);
  const auto docs = graded_docs(20, 2, 128);
  for (const auto& doc : docs) {
    sel.observe(as_view(doc));
    EXPECT_LE(sel.stored(), 5u);
  }
  EXPECT_EQ(sel.stats().evictions, 15u);
}

TEST(Selector, BestMinimizesSumOfDeltas) {
  SelectorConfig config;
  config.sample_prob = 1.0;
  config.max_samples = 16;
  BaseFileSelector sel(config, 5);
  auto docs = graded_docs(8);
  // Insert in shuffled order; doc 0 (least unique bytes) should win.
  util::Rng rng(9);
  rng.shuffle(docs);
  for (const auto& doc : docs) sel.observe(as_view(doc));
  const auto sorted = graded_docs(8);
  ASSERT_NE(sel.best(), nullptr);
  EXPECT_EQ(*sel.best(), sorted[0]);
}

TEST(Selector, WorstEvictionKeepsGoodCandidates) {
  SelectorConfig config;
  config.sample_prob = 1.0;
  config.max_samples = 4;
  BaseFileSelector sel(config, 6);
  const auto docs = graded_docs(12);
  // Feed worst-first so the good ones arrive while the store is full.
  for (auto it = docs.rbegin(); it != docs.rend(); ++it) sel.observe(as_view(*it));
  ASSERT_NE(sel.best(), nullptr);
  EXPECT_EQ(*sel.best(), docs[0]);
}

TEST(Selector, FlushDropsEverything) {
  BaseFileSelector sel(SelectorConfig{}, 7);
  sel.admit(as_view(to_bytes("a")));
  sel.admit(as_view(to_bytes("b")));
  sel.flush();
  EXPECT_EQ(sel.stored(), 0u);
  EXPECT_EQ(sel.best(), nullptr);
  EXPECT_EQ(sel.stored_bytes(), 0u);
}

// Regression: kTwoSet used to materialize each admitted document twice —
// once into the reference set and once into the candidate encoder. Both
// sides now share one immutable buffer, so admitting a doc while both sets
// have room must cost its size once, not twice.
TEST(Selector, TwoSetAdmissionSharesOneBuffer) {
  SelectorConfig config;
  config.sample_prob = 1.0;
  config.max_samples = 8;
  config.eviction = SelectorConfig::Eviction::kTwoSet;
  BaseFileSelector sel(config, 8);
  const Bytes doc = to_bytes(trace::synth_prose(77, 4096));
  sel.admit(as_view(doc));
  EXPECT_EQ(sel.stored(), 1u);
  EXPECT_EQ(sel.stored_bytes(), doc.size());
}

class SelectorEvictionPolicies
    : public ::testing::TestWithParam<SelectorConfig::Eviction> {};

TEST_P(SelectorEvictionPolicies, AllPoliciesTrackAGoodBase) {
  SelectorConfig config;
  config.sample_prob = 1.0;
  config.max_samples = 6;
  config.eviction = GetParam();
  BaseFileSelector sel(config, 8);
  auto docs = graded_docs(24, 4, 256);
  util::Rng rng(17);
  rng.shuffle(docs);
  for (const auto& doc : docs) sel.observe(as_view(doc));
  ASSERT_NE(sel.best(), nullptr);
  // The chosen base must be among the better half of candidates.
  const auto sorted = graded_docs(24, 4, 256);
  const auto pos = std::find(sorted.begin(), sorted.end(), *sel.best());
  ASSERT_NE(pos, sorted.end());
  EXPECT_LT(pos - sorted.begin(), 12);
}

INSTANTIATE_TEST_SUITE_P(Policies, SelectorEvictionPolicies,
                         ::testing::Values(SelectorConfig::Eviction::kWorst,
                                           SelectorConfig::Eviction::kPeriodicRandom,
                                           SelectorConfig::Eviction::kTwoSet));

TEST(Selector, PeriodicRandomEvictionHappens) {
  SelectorConfig config;
  config.sample_prob = 1.0;
  config.max_samples = 3;
  config.eviction = SelectorConfig::Eviction::kPeriodicRandom;
  BaseFileSelector sel(config, 9);
  // Enough documents for three random turns: every kRandomEvictPeriod-th
  // eviction.
  constexpr std::size_t kPeriod = SelectorConfig::kRandomEvictPeriod;
  for (const auto& doc : graded_docs(config.max_samples + 3 * kPeriod, 1, 64)) {
    sel.observe(as_view(doc));
  }
  EXPECT_EQ(sel.stats().evictions, 3 * kPeriod);
  EXPECT_EQ(sel.stats().random_evictions, 3u);
}

TEST(Selector, InvalidConfigRejected) {
  SelectorConfig bad;
  bad.sample_prob = 1.5;
  EXPECT_THROW(BaseFileSelector(bad, 1), std::invalid_argument);
  SelectorConfig bad2;
  bad2.max_samples = 0;
  EXPECT_THROW(BaseFileSelector(bad2, 1), std::invalid_argument);
}

// ---------------------------------------------------------------- policies

TEST(Policies, FirstResponseKeepsFirstForever) {
  FirstResponsePolicy policy;
  EXPECT_EQ(policy.current_base(), nullptr);
  const auto docs = graded_docs(5);
  for (const auto& doc : docs) policy.observe(as_view(doc));
  ASSERT_NE(policy.current_base(), nullptr);
  EXPECT_EQ(*policy.current_base(), docs[0]);
}

TEST(Policies, OnlineOptimalPicksGlobalArgmin) {
  OnlineOptimalPolicy policy;
  auto docs = graded_docs(10);
  util::Rng rng(3);
  rng.shuffle(docs);
  for (const auto& doc : docs) policy.observe(as_view(doc));
  const auto sorted = graded_docs(10);
  ASSERT_NE(policy.current_base(), nullptr);
  EXPECT_EQ(*policy.current_base(), sorted[0]);
}

TEST(Policies, OfflineOptimalAgreesWithOnlineAtEnd) {
  auto docs = graded_docs(9);
  util::Rng rng(4);
  rng.shuffle(docs);
  OnlineOptimalPolicy policy;
  for (const auto& doc : docs) policy.observe(as_view(doc));
  const std::size_t offline = offline_optimal_index(docs);
  EXPECT_EQ(*policy.current_base(), docs[offline]);
}

TEST(Policies, RandomizedTracksNearOptimal) {
  // The §IV claim: the randomized algorithm performs close to the online
  // optimal. Measure mean served-delta size over the same stream.
  auto docs = subset_docs(40);
  util::Rng rng(5);
  rng.shuffle(docs);

  SelectorConfig config;
  config.sample_prob = 0.5;
  config.max_samples = 8;
  RandomizedPolicy randomized(config, 77);
  OnlineOptimalPolicy optimal;
  FirstResponsePolicy first;

  auto run = [&docs](BasePolicy& policy) {
    double total = 0;
    std::size_t served = 0;
    for (const auto& doc : docs) {
      if (const util::Bytes* base = policy.current_base()) {
        total += static_cast<double>(
            delta::encode(as_view(*base), as_view(doc)).delta.size());
        ++served;
      }
      policy.observe(as_view(doc));
    }
    return total / static_cast<double>(served);
  };

  const double avg_first = run(first);
  const double avg_rand = run(randomized);
  const double avg_opt = run(optimal);
  EXPECT_LE(avg_opt, avg_first);
  EXPECT_LE(avg_rand, avg_first * 1.05);       // never meaningfully worse
  EXPECT_LE(avg_rand, avg_opt * 1.5);          // close to optimal
}

}  // namespace
}  // namespace cbde::core
