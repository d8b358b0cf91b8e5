#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/class_manager.hpp"
#include "trace/document.hpp"
#include "trace/site.hpp"

namespace cbde::core {
namespace {

using util::Bytes;
using util::as_view;

/// Test harness mirroring how DeltaServer drives ClassManager: classes get
/// the first document grouped into them as their working base, held as a
/// cached light estimator.
struct Grouper {
  GroupingConfig config;
  ClassManager manager;
  std::map<ClassId, std::unique_ptr<delta::Estimator>> bases;

  explicit Grouper(GroupingConfig config_in = {}, std::uint64_t seed = 1)
      : config(config_in), manager(config_in, seed) {}

  void set_base(ClassId id, const Bytes& doc) {
    bases[id] = std::make_unique<delta::Estimator>(doc);
  }

  ClassManager::Decision group(const http::UrlParts& parts, const Bytes& doc) {
    auto decision =
        manager.group(parts, as_view(doc), [this](ClassId id) -> const delta::Estimator* {
          const auto it = bases.find(id);
          return it == bases.end() ? nullptr : it->second.get();
        });
    if (decision.created) set_base(decision.id, doc);
    return decision;
  }
};

http::UrlParts parts(const std::string& server, const std::string& hint,
                     const std::string& rest = "") {
  return http::UrlParts{server, hint, rest};
}

struct Corpus {
  trace::DocumentTemplate laptops{101, trace::TemplateConfig{}};
  trace::DocumentTemplate desktops{202, trace::TemplateConfig{}};

  Bytes laptop(std::uint64_t doc, std::uint64_t user = 1) const {
    return laptops.generate(doc, user, 0);
  }
  Bytes desktop(std::uint64_t doc, std::uint64_t user = 1) const {
    return desktops.generate(doc, user, 0);
  }
};

TEST(ClassManager, FirstRequestCreatesClass) {
  Grouper g;
  Corpus c;
  const auto decision = g.group(parts("www.foo.com", "laptops", "1"), c.laptop(1));
  EXPECT_TRUE(decision.created);
  EXPECT_EQ(decision.tries, 0u);
  EXPECT_EQ(g.manager.num_classes(), 1u);
  EXPECT_EQ(g.manager.members_of(decision.id), 1u);
}

TEST(ClassManager, SimilarDocumentsJoinTheSameClass) {
  Grouper g;
  Corpus c;
  const auto first = g.group(parts("www.foo.com", "laptops", "1"), c.laptop(1));
  for (std::uint64_t d = 2; d < 8; ++d) {
    const auto next = g.group(parts("www.foo.com", "laptops", std::to_string(d)),
                              c.laptop(d));
    EXPECT_FALSE(next.created) << "doc " << d;
    EXPECT_EQ(next.id, first.id);
    EXPECT_LE(next.tries, 2u);  // "groups requests in classes after a couple of tries"
  }
  EXPECT_EQ(g.manager.num_classes(), 1u);
  EXPECT_EQ(g.manager.members_of(first.id), 7u);
}

TEST(ClassManager, DissimilarContentCreatesSecondClassDespiteSameHint) {
  Grouper g;
  Corpus c;
  const auto a = g.group(parts("www.foo.com", "stuff", "1"), c.laptop(1));
  // Same hint but a completely different template: no match.
  const auto b = g.group(parts("www.foo.com", "stuff", "2"), c.desktop(1));
  EXPECT_TRUE(b.created);
  EXPECT_NE(a.id, b.id);
  EXPECT_GE(b.tries, 1u);  // it probed the first class before giving up
}

TEST(ClassManager, DifferentServersNeverShareClasses) {
  Grouper g;
  Corpus c;
  const auto a = g.group(parts("www.foo.com", "laptops", "1"), c.laptop(1));
  // Identical content on another host: "a new class is created in case
  // there are no classes with members whose server-part is the same".
  const auto b = g.group(parts("www.bar.com", "laptops", "1"), c.laptop(1));
  EXPECT_TRUE(b.created);
  EXPECT_NE(a.id, b.id);
  EXPECT_EQ(b.tries, 0u);  // no eligible candidates, no delta estimated
}

TEST(ClassManager, HintNarrowsTheSearch) {
  GroupingConfig config;
  config.max_tries = 8;
  Grouper g(config);
  Corpus c;
  // Create several desktop classes under distinct hints.
  g.group(parts("www.foo.com", "desktops", "1"), c.desktop(1));
  g.group(parts("www.foo.com", "monitors", "1"), c.desktop(100));
  const auto lap = g.group(parts("www.foo.com", "laptops", "1"), c.laptop(1));
  // Another laptop doc with the laptops hint must match in one try even
  // though other classes exist.
  const auto again = g.group(parts("www.foo.com", "laptops", "2"), c.laptop(2));
  EXPECT_EQ(again.id, lap.id);
  EXPECT_EQ(again.tries, 1u);
}

TEST(ClassManager, TriesAreBoundedByN) {
  GroupingConfig config;
  config.max_tries = 3;
  config.match_threshold = 1e-9;  // nothing ever matches
  Grouper g(config);
  Corpus c;
  for (std::uint64_t d = 0; d < 10; ++d) {
    const auto decision =
        g.group(parts("www.foo.com", "x", std::to_string(d)), c.laptop(d));
    EXPECT_TRUE(decision.created);
    EXPECT_LE(decision.tries, 3u);
  }
  EXPECT_EQ(g.manager.num_classes(), 10u);
}

TEST(ClassManager, ManualClassesBypassContentTest) {
  Grouper g;
  Corpus c;
  const ClassId manual = g.manager.add_manual_class("www.foo.com", "adhoc");
  g.set_base(manual, c.laptop(1));
  const auto decision = g.group(parts("www.foo.com", "adhoc", "anything"), c.desktop(5));
  EXPECT_FALSE(decision.created);
  EXPECT_EQ(decision.id, manual);
  EXPECT_EQ(decision.tries, 0u);
  EXPECT_EQ(g.manager.stats().manual_hits, 1u);
  // Registering the same pair again returns the same class.
  EXPECT_EQ(g.manager.add_manual_class("www.foo.com", "adhoc"), manual);
}

TEST(ClassManager, PopularClassesAreProbedFirst) {
  GroupingConfig config;
  config.max_tries = 2;
  config.popular_fraction = 1.0;  // only popular probes
  Grouper g(config);
  Corpus c;
  // Build one popular laptop class and several unpopular desktop classes
  // under different hints (so hint narrowing does not apply for "mixed").
  const auto popular = g.group(parts("www.foo.com", "a", "1"), c.laptop(1));
  for (std::uint64_t d = 2; d < 12; ++d) {
    g.group(parts("www.foo.com", "a", std::to_string(d)), c.laptop(d));
  }
  g.group(parts("www.foo.com", "b", "1"), c.desktop(1));
  g.group(parts("www.foo.com", "c", "1"), c.desktop(50));

  // A laptop doc under a brand-new hint: eligible set is all classes of the
  // server; with 2 popular-first tries the big laptop class must be probed
  // first and match immediately.
  const auto decision = g.group(parts("www.foo.com", "new-hint", "1"), c.laptop(99));
  EXPECT_FALSE(decision.created);
  EXPECT_EQ(decision.id, popular.id);
  EXPECT_EQ(decision.tries, 1u);
}

TEST(ClassManager, StatsHistogramAccumulates) {
  Grouper g;
  Corpus c;
  for (std::uint64_t d = 0; d < 5; ++d) {
    g.group(parts("www.foo.com", "laptops", std::to_string(d)), c.laptop(d));
  }
  EXPECT_EQ(g.manager.stats().requests, 5u);
  EXPECT_EQ(g.manager.stats().classes_created, 1u);
  EXPECT_EQ(g.manager.stats().tries.total(), 5u);
}

TEST(ClassManager, InvalidConfigRejected) {
  GroupingConfig bad;
  bad.max_tries = 0;
  EXPECT_THROW(ClassManager(bad, 1), std::invalid_argument);
  GroupingConfig bad2;
  bad2.popular_fraction = 2.0;
  EXPECT_THROW(ClassManager(bad2, 1), std::invalid_argument);
  GroupingConfig bad3;
  bad3.match_threshold = 0.0;
  EXPECT_THROW(ClassManager(bad3, 1), std::invalid_argument);
}

TEST(ClassManager, ClassCountStaysFarBelowDocumentCount) {
  // §VI-B: "the number of produced groups are between 10 and 100 times less
  // than the number of dynamic documents."
  Grouper g;
  trace::SiteConfig sconfig;
  sconfig.docs_per_category = 40;
  sconfig.categories = {"laptops", "desktops", "tablets", "phones"};
  const trace::SiteModel site(sconfig);
  std::size_t documents = 0;
  for (std::size_t cat = 0; cat < 4; ++cat) {
    for (std::size_t d = 0; d < 40; ++d) {
      const trace::DocRef ref{cat, d};
      const auto url = site.url_for(ref);
      g.group(http::default_partition(url), site.generate(ref, d, 0));
      ++documents;
    }
  }
  EXPECT_EQ(documents, 160u);
  EXPECT_LE(g.manager.num_classes(), 16u);  // >= 10x fewer classes than docs
}

}  // namespace
}  // namespace cbde::core
