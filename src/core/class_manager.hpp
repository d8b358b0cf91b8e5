// Grouping documents into classes (paper §III).
//
// A request is grouped into an existing class if a *light* delta between the
// requested document and the class's base-file is below a threshold
// ("matching"). Search is hint-guided and bounded:
//   * only classes with the same server-part are eligible (a new class is
//     created otherwise);
//   * classes sharing the request's hint-part are preferred exclusively when
//     any exist;
//   * at most N classes are probed: the first a*N tries go to the most
//     popular eligible classes, the remaining (1-a)*N to random picks among
//     the rest; the search stops at the first match;
//   * administrators may pin (server-part, hint-part) pairs to manual
//     classes, bypassing the content test (the ad-hoc-site escape hatch).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "delta/delta.hpp"
#include "http/partition.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace cbde::core {

using ClassId = std::uint64_t;

struct GroupingConfig {
  std::size_t max_tries = 8;       ///< N — classes probed per request
  double popular_fraction = 0.5;   ///< a — share of tries spent on popular classes
  /// Matching: light delta size <= threshold * document size. The light
  /// estimator is deliberately coarse (large chunks, shallow search), so the
  /// threshold is looser than the "real" delta ratio one would accept.
  double match_threshold = 0.5;
};

struct GroupingStats {
  std::uint64_t requests = 0;
  std::uint64_t classes_created = 0;
  std::uint64_t manual_hits = 0;
  util::Histogram tries{16};  ///< probes needed per grouped request
};

class ClassManager {
 public:
  /// Class ids are handed out 1, 2, 3, ... in creation order.
  ClassManager(GroupingConfig config, std::uint64_t seed);

  struct Decision {
    ClassId id = 0;
    bool created = false;
    std::size_t tries = 0;  ///< delta estimations performed
  };

  /// Group a request. `estimator_of` must return the cached light estimator
  /// over a class's current working base-file (nullptr, or an estimator with
  /// an empty base, if it has none yet — the class is then skipped). The
  /// caller owns the estimators and rebuilds them on rebase; grouping itself
  /// never builds an index, it only runs the size-only match scan, stopped
  /// at its verdict (Estimator::within). Increments the chosen class's
  /// member count.
  Decision group(const http::UrlParts& parts, util::BytesView doc,
                 const std::function<const delta::Estimator*(ClassId)>& estimator_of);

  /// Administrator override: requests whose (server-part, hint-part) match
  /// are grouped into a dedicated class with no content test.
  ClassId add_manual_class(const std::string& server_part, const std::string& hint_part);

  std::size_t num_classes() const { return classes_.size(); }
  std::uint64_t members_of(ClassId id) const;
  const GroupingStats& stats() const { return stats_; }

  /// Deterministic per-class seed assigned at creation, derived from the
  /// manager seed, the class's (server-part, hint-part) and its creation
  /// ordinal within that pair — never from a shared RNG stream. These seeds
  /// fix the selector draws behind the published Tables II-IV, so changing
  /// the derivation changes those results.
  std::uint64_t class_seed(ClassId id) const;

 private:
  struct ClassInfo {
    std::uint64_t members = 0;
    std::uint64_t seed = 0;
  };
  /// What one (server-part, hint-part) pair has seen. Its class count is the
  /// creation ordinal of its next class seed, and its shuffle count seeds its
  /// next candidate shuffle; keyed by the pair (not globally) so the draws a
  /// pair sees are independent of how other pairs' requests interleave with
  /// it. They fix the RNG draws behind Tables II-IV.
  struct PairInfo {
    std::vector<ClassId> classes;  ///< created under the pair, in creation order
    ClassId manual = 0;            ///< its administrator-pinned class, or 0
    std::uint64_t shuffles = 0;
  };
  /// An eligible class and its member count when it was ranked.
  struct Candidate {
    std::uint64_t members;
    ClassId id;
  };

  ClassId create_class(const std::string& server_part, const std::string& hint_part,
                       PairInfo& pair);
  /// Eligible candidates in probe order (popular first, then random fill),
  /// valid until the next call.
  std::span<const Candidate> candidates(const http::UrlParts& parts, PairInfo& pair);
  /// Stateless mix of the manager seed with a (server-part, hint-part) pair
  /// and a per-pair ordinal; the basis for class seeds and shuffle seeds.
  std::uint64_t pair_seed(const std::string& server_part, const std::string& hint_part,
                          std::uint64_t ordinal) const;

  GroupingConfig config_;
  std::uint64_t seed_;
  /// Class id i is classes_[i - 1]: ids are handed out densely.
  std::vector<ClassInfo> classes_;
  std::map<std::pair<std::string, std::string>, PairInfo> pairs_;
  /// server-part -> classes created under it, in creation order.
  std::map<std::string, std::vector<ClassId>> by_server_;
  /// candidates()' ranking, kept so that a request allocates none.
  std::vector<Candidate> ranked_;
  GroupingStats stats_;
};

}  // namespace cbde::core
