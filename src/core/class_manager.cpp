#include "core/class_manager.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/hash.hpp"

namespace cbde::core {

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

  // Manual grouping bypasses the content test entirely.
  if (const auto it = manual_.find({parts.server_part, parts.hint_part});
      it != manual_.end()) {
    ++stats_.manual_hits;
    bump_members(it->second);
    stats_.tries.add(0);
    return Decision{it->second, false, 0};
  }

  Decision decision;
  const auto order = candidates(parts.server_part, parts.hint_part);
  for (const ClassId id : order) {
    const delta::Estimator* estimator = estimator_of(id);
    if (estimator == nullptr || estimator->base().empty()) continue;
    ++decision.tries;
    const std::size_t estimate = estimator->estimate(doc);
    if (static_cast<double>(estimate) <=
        config_.match_threshold * static_cast<double>(doc.size())) {
      decision.id = id;
      bump_members(id);
      stats_.tries.add(decision.tries);
      return decision;
    }
  }

  decision.id = create_class(parts);
  decision.created = true;
  bump_members(decision.id);
  stats_.tries.add(decision.tries);
  return decision;
}

void ClassManager::bump_members(ClassId id) {
  const auto it = members_.find(id);
  CBDE_ASSERT(it != members_.end());  // registered when the class was created
  ++it->second;
}

ClassId ClassManager::add_manual_class(const std::string& server_part,
                                       const std::string& hint_part) {
  const auto key = std::make_pair(server_part, hint_part);
  if (const auto it = manual_.find(key); it != manual_.end()) return it->second;
  const ClassId id = next_id_++;
  members_.emplace(id, 0);
  seeds_.emplace(id, pair_seed(server_part, hint_part, creation_ordinals_[key]++));
  manual_.emplace(key, id);
  // Manual classes are also registered for the normal search so their
  // base-files participate in matching for other hints.
  by_server_[server_part].push_back(ClassInfo{id, hint_part});
  return id;
}

std::uint64_t ClassManager::members_of(ClassId id) const {
  const auto it = members_.find(id);
  return it == members_.end() ? 0 : it->second;
}

std::uint64_t ClassManager::class_seed(ClassId id) const {
  const auto it = seeds_.find(id);
  return it == seeds_.end() ? seed_ : it->second;
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

ClassId ClassManager::create_class(const http::UrlParts& parts) {
  const ClassId id = next_id_++;
  members_.emplace(id, 0);
  const auto key = std::make_pair(parts.server_part, parts.hint_part);
  seeds_.emplace(id, pair_seed(parts.server_part, parts.hint_part,
                               creation_ordinals_[key]++));
  by_server_[parts.server_part].push_back(ClassInfo{id, parts.hint_part});
  ++stats_.classes_created;
  return id;
}

std::vector<ClassId> ClassManager::candidates(const std::string& server_part,
                                              const std::string& hint_part) {
  const auto server_it = by_server_.find(server_part);
  if (server_it == by_server_.end()) return {};  // new server-part: create class
  const auto& classes = server_it->second;

  // "If some classes have members whose hint-parts are the same with the
  // request's hint-part, the mechanism only considers those."
  std::vector<ClassId> eligible;
  eligible.reserve(classes.size());
  for (const ClassInfo& info : classes) {
    if (info.hint_part == hint_part) eligible.push_back(info.id);
  }
  if (eligible.empty()) {
    for (const ClassInfo& info : classes) eligible.push_back(info.id);
  }

  // Popular classes first for the first a*N tries. members_of (a lookup)
  // rather than members_[] so comparing an unseen id cannot insert a node.
  std::stable_sort(eligible.begin(), eligible.end(), [this](ClassId a, ClassId b) {
    return members_of(a) > members_of(b);
  });
  const std::size_t n_popular = std::min(
      eligible.size(),
      static_cast<std::size_t>(config_.popular_fraction *
                               static_cast<double>(config_.max_tries)));

  // "... and the last (1-a)*N consist of random selections among the rest."
  // The popular prefix stays put and the rest is shuffled in place: the
  // subrange shuffle draws exactly what shuffling a separate `rest` copy
  // drew, so the order is unchanged but the two range copies per request
  // are gone.
  // Seed the shuffle per (server-part, hint-part, request ordinal) instead of
  // drawing from one manager-wide stream: the draw a request sees then does
  // not depend on which other pairs' requests ran through this manager
  // before it. The derivation fixes the random picks behind Tables II-IV.
  util::Rng shuffle_rng(pair_seed(
      server_part, hint_part,
      0x5A5A5A5A00000000ull ^ shuffle_ordinals_[{server_part, hint_part}]++));
  shuffle_rng.shuffle(eligible.begin() + static_cast<std::ptrdiff_t>(n_popular),
                      eligible.end());
  if (eligible.size() > config_.max_tries) eligible.resize(config_.max_tries);
  return eligible;
}

}  // namespace cbde::core
