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
#include <string>
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

  /// Lossless aggregation of per-shard grouping statistics.
  void merge(const GroupingStats& other) {
    requests += other.requests;
    classes_created += other.classes_created;
    manual_hits += other.manual_hits;
    tries.merge(other.tries);
  }
};

class ClassManager {
 public:
  /// `id_first`/`id_stride` partition the class-id space across sharded
  /// managers: ids are id_first, id_first + id_stride, ... so a sharded
  /// DeltaServer can recover the owning shard as (id - 1) % num_shards
  /// while the unsharded default (1, 1) keeps the historical ids 1, 2, 3...
  ClassManager(GroupingConfig config, std::uint64_t seed, ClassId id_first = 1,
               ClassId id_stride = 1);

  struct Decision {
    ClassId id = 0;
    bool created = false;
    std::size_t tries = 0;  ///< delta estimations performed
  };

  /// Group a request. `estimator_of` must return the cached light estimator
  /// over a class's current working base-file (nullptr, or an estimator with
  /// an empty base, if it has none yet — the class is then skipped). The
  /// caller owns the estimators and rebuilds them on rebase; grouping itself
  /// never builds an index, it only runs the size-only match scan.
  /// Increments the chosen class's member count.
  Decision group(const http::UrlParts& parts, util::BytesView doc,
                 const std::function<const delta::Estimator*(ClassId)>& estimator_of);

  /// Administrator override: requests whose (server-part, hint-part) match
  /// are grouped into a dedicated class with no content test.
  ClassId add_manual_class(const std::string& server_part, const std::string& hint_part);

  std::size_t num_classes() const { return members_.size(); }
  std::uint64_t members_of(ClassId id) const;
  const GroupingStats& stats() const { return stats_; }

  /// Deterministic per-class seed assigned at creation, derived from the
  /// manager seed, the class's (server-part, hint-part) and its creation
  /// ordinal within that pair — never from a shared RNG stream. Because all
  /// requests of one (server-part, hint-part) land on one shard, the same
  /// logical class gets the same seed at any shard count, which is what
  /// keeps Table II byte accounting bit-exact across shard counts.
  std::uint64_t class_seed(ClassId id) const;

 private:
  struct ClassInfo {
    ClassId id;
    std::string hint_part;
  };

  ClassId create_class(const http::UrlParts& parts);
  /// Increment the member count of a class that is known to exist (every
  /// class is registered in members_ on creation, so no insert happens).
  void bump_members(ClassId id);
  /// Eligible candidates in probe order (popular first, then random fill).
  std::vector<ClassId> candidates(const std::string& server_part,
                                  const std::string& hint_part);
  /// Stateless mix of the manager seed with a (server-part, hint-part) pair
  /// and a per-pair ordinal; the basis for class seeds and shuffle seeds.
  std::uint64_t pair_seed(const std::string& server_part, const std::string& hint_part,
                          std::uint64_t ordinal) const;

  GroupingConfig config_;
  std::uint64_t seed_;
  ClassId next_id_;
  ClassId id_stride_;
  /// server-part -> classes created under it.
  std::map<std::string, std::vector<ClassInfo>> by_server_;
  std::map<ClassId, std::uint64_t> members_;
  std::map<ClassId, std::uint64_t> seeds_;
  std::map<std::pair<std::string, std::string>, ClassId> manual_;
  /// Per-(server-part, hint-part) counters driving the candidate shuffle and
  /// class seeds; keyed by the pair (not globally) so the sequence a given
  /// pair observes is independent of how other pairs interleave — i.e. of
  /// how classes are partitioned across shards.
  std::map<std::pair<std::string, std::string>, std::uint64_t> shuffle_ordinals_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> creation_ordinals_;
  GroupingStats stats_;
};

}  // namespace cbde::core
