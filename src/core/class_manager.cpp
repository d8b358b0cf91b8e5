#include "core/class_manager.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace cbde::core {
namespace {

/// The largest light estimate that matches a `size`-byte document: the floor
/// of threshold × size, the product taken in doubles, saturated. An infinite
/// threshold times an empty document is NaN, which matches nothing, and so
/// does 0: an estimate is at least its header.
std::size_t match_limit(double threshold, std::size_t size) {
  const double bound = threshold * static_cast<double>(size);
  if (bound >= 0x1p64) return SIZE_MAX;
  return bound >= 0.0 ? static_cast<std::size_t>(bound) : 0;
}

}  // namespace

ClassManager::ClassManager(GroupingConfig config, std::uint64_t seed)
    : config_(config), seed_(seed) {
  CBDE_EXPECT(config_.max_tries >= 1);
  CBDE_EXPECT(config_.popular_fraction >= 0.0 && config_.popular_fraction <= 1.0);
  CBDE_EXPECT(config_.match_threshold > 0.0);
}

ClassManager::Decision ClassManager::group(
    const http::UrlParts& parts, util::BytesView doc,
    const std::function<const delta::Estimator*(ClassId)>& estimator_of) {
  ++stats_.requests;
  PairInfo& pair = pairs_[{parts.server_part, parts.hint_part}];

  // Manual grouping bypasses the content test entirely.
  if (pair.manual != 0) {
    ++stats_.manual_hits;
    ++classes_[pair.manual - 1].members;
    stats_.tries.add(0);
    return Decision{pair.manual, false, 0};
  }

  Decision decision;
  // estimate <= threshold × size, exactly, without finishing the estimate.
  const std::size_t limit = match_limit(config_.match_threshold, doc.size());
  for (const Candidate& candidate : candidates(parts, pair)) {
    const delta::Estimator* estimator = estimator_of(candidate.id);
    if (estimator == nullptr || estimator->base().empty()) continue;
    ++decision.tries;
    if (estimator->within(doc, limit)) {
      decision.id = candidate.id;
      ++classes_[candidate.id - 1].members;
      stats_.tries.add(decision.tries);
      return decision;
    }
  }

  decision.id = create_class(parts.server_part, parts.hint_part, pair);
  decision.created = true;
  ++stats_.classes_created;
  ++classes_[decision.id - 1].members;
  stats_.tries.add(decision.tries);
  return decision;
}

ClassId ClassManager::add_manual_class(const std::string& server_part,
                                       const std::string& hint_part) {
  PairInfo& pair = pairs_[{server_part, hint_part}];
  if (pair.manual != 0) return pair.manual;
  // Manual classes are also registered for the normal search so their
  // base-files participate in matching for other hints.
  pair.manual = create_class(server_part, hint_part, pair);
  return pair.manual;
}

std::uint64_t ClassManager::members_of(ClassId id) const {
  return id >= 1 && id <= classes_.size() ? classes_[id - 1].members : 0;
}

std::uint64_t ClassManager::class_seed(ClassId id) const {
  return id >= 1 && id <= classes_.size() ? classes_[id - 1].seed : seed_;
}

std::uint64_t ClassManager::pair_seed(const std::string& server_part,
                                      const std::string& hint_part,
                                      std::uint64_t ordinal) const {
  // hint is folded with the server hash as its FNV seed (not XORed) so
  // ("ab", "c") and ("a", "bc") mix differently.
  std::uint64_t state =
      seed_ ^ util::fnv1a64(hint_part, util::fnv1a64(server_part)) ^ ordinal;
  return util::splitmix64(state);
}

ClassId ClassManager::create_class(const std::string& server_part,
                                   const std::string& hint_part, PairInfo& pair) {
  classes_.push_back(ClassInfo{0, pair_seed(server_part, hint_part, pair.classes.size())});
  const ClassId id = classes_.size();
  pair.classes.push_back(id);
  by_server_[server_part].push_back(id);
  return id;
}

std::span<const ClassManager::Candidate> ClassManager::candidates(const http::UrlParts& parts,
                                                                  PairInfo& pair) {
  // "If some classes have members whose hint-parts are the same with the
  // request's hint-part, the mechanism only considers those."
  const std::vector<ClassId>* eligible = &pair.classes;
  if (eligible->empty()) {
    const auto server_it = by_server_.find(parts.server_part);
    if (server_it == by_server_.end()) return {};  // new server-part: create class
    eligible = &server_it->second;
  }

  // Popular classes first for the first a*N tries: most members first, ties
  // in creation (id) order, the order a stable sort of the creation-ordered
  // list by members gives.
  ranked_.clear();
  for (const ClassId id : *eligible) ranked_.push_back(Candidate{classes_[id - 1].members, id});
  std::sort(ranked_.begin(), ranked_.end(), [](const Candidate& a, const Candidate& b) {
    return a.members != b.members ? a.members > b.members : a.id < b.id;
  });
  const std::size_t n_popular = std::min(
      ranked_.size(),
      static_cast<std::size_t>(config_.popular_fraction *
                               static_cast<double>(config_.max_tries)));

  // "... and the last (1-a)*N consist of random selections among the rest."
  // The popular prefix stays put and the rest is shuffled in place: the
  // subrange shuffle draws exactly what shuffling a separate `rest` copy
  // drew.
  // Seed the shuffle per (server-part, hint-part, request ordinal) instead of
  // drawing from one manager-wide stream: the draw a request sees then does
  // not depend on which other pairs' requests ran through this manager
  // before it. The derivation fixes the random picks behind Tables II-IV.
  util::Rng shuffle_rng(
      pair_seed(parts.server_part, parts.hint_part, 0x5A5A5A5A00000000ull ^ pair.shuffles++));
  shuffle_rng.shuffle(ranked_.begin() + static_cast<std::ptrdiff_t>(n_popular), ranked_.end());
  return std::span<const Candidate>(ranked_).first(std::min(ranked_.size(), config_.max_tries));
}

}  // namespace cbde::core
