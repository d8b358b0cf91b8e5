#include "core/basefile_selector.hpp"

#include <algorithm>
#include <limits>

#include "util/contracts.hpp"

namespace cbde::core {

BaseFileSelector::BaseFileSelector(SelectorConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  CBDE_EXPECT(config_.sample_prob >= 0.0 && config_.sample_prob <= 1.0);
  CBDE_EXPECT(config_.max_samples >= 1);
}

void BaseFileSelector::observe(util::BytesView doc) {
  ++stats_.observed;
  if (!rng_.bernoulli(config_.sample_prob)) return;
  admit(doc);
}

std::shared_ptr<const delta::Estimator> BaseFileSelector::admit(util::BytesView doc) {
  ++stats_.sampled;
  // One copy of the sampled document, shared by the reference set and the
  // candidate estimator — the kTwoSet policy used to materialize it twice.
  auto snapshot = std::make_shared<const util::Bytes>(doc.begin(), doc.end());
  if (config_.eviction == SelectorConfig::Eviction::kTwoSet) {
    insert_reference(snapshot);
  }
  insert_candidate(std::move(snapshot));
  return candidates_.back();
}

void BaseFileSelector::insert_candidate(std::shared_ptr<const util::Bytes> doc) {
  if (candidates_.size() >= config_.max_samples) evict_candidate();

  const std::size_t idx = candidates_.size();
  candidates_.push_back(std::make_shared<const delta::Estimator>(std::move(doc)));
  const delta::Estimator& fresh = *candidates_[idx];

  if (config_.eviction == SelectorConfig::Eviction::kTwoSet) {
    // Column set is the reference set; score the new candidate against it.
    std::vector<double> row(references_.size(), 0.0);
    for (std::size_t j = 0; j < references_.size(); ++j) {
      row[j] = static_cast<double>(fresh.estimate(util::as_view(*references_[j])));
    }
    score_matrix_.push_back(std::move(row));
    return;
  }

  // One-set policies: extend the square matrix with a new row and column.
  std::vector<double> row(idx + 1, 0.0);
  for (std::size_t j = 0; j < idx; ++j) {
    row[j] = static_cast<double>(fresh.estimate(util::as_view(candidates_[j]->base())));
    score_matrix_[j].push_back(
        static_cast<double>(candidates_[j]->estimate(util::as_view(fresh.base()))));
  }
  score_matrix_.push_back(std::move(row));
}

void BaseFileSelector::insert_reference(std::shared_ptr<const util::Bytes> doc) {
  if (references_.size() >= config_.max_samples) {
    // "a random sample is evicted from the other set"
    const std::size_t victim = static_cast<std::size_t>(rng_.next_below(references_.size()));
    references_.erase(references_.begin() + static_cast<std::ptrdiff_t>(victim));
    for (auto& row : score_matrix_) {
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(victim));
    }
  }
  references_.push_back(std::move(doc));
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    score_matrix_[i].push_back(
        static_cast<double>(candidates_[i]->estimate(util::as_view(*references_.back()))));
  }
}

double BaseFileSelector::score(std::size_t idx) const {
  double total = 0.0;
  const auto& row = score_matrix_[idx];
  for (std::size_t j = 0; j < row.size(); ++j) {
    if (config_.eviction != SelectorConfig::Eviction::kTwoSet && j == idx) continue;
    total += row[j];
  }
  return total;
}

std::size_t BaseFileSelector::best_index() const {
  CBDE_ASSERT(!candidates_.empty());
  std::size_t best = 0;
  double best_score = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const double s = score(i);
    if (s < best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

void BaseFileSelector::evict_candidate() {
  ++stats_.evictions;
  const bool random_turn =
      config_.eviction == SelectorConfig::Eviction::kPeriodicRandom &&
      stats_.evictions % SelectorConfig::kRandomEvictPeriod == 0;
  if (random_turn && candidates_.size() > 1) {
    // Random eviction, "excluding the current base-file" (the best sample).
    ++stats_.random_evictions;
    const std::size_t keep = best_index();
    std::size_t victim =
        static_cast<std::size_t>(rng_.next_below(candidates_.size() - 1));
    if (victim >= keep) ++victim;
    remove_candidate(victim);
    return;
  }
  // Evict the document that maximizes the sum of deltas (the worst).
  std::size_t worst = 0;
  double worst_score = -1.0;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const double s = score(i);
    if (s > worst_score) {
      worst_score = s;
      worst = i;
    }
  }
  remove_candidate(worst);
}

void BaseFileSelector::remove_candidate(std::size_t idx) {
  CBDE_ASSERT(idx < candidates_.size());
  candidates_.erase(candidates_.begin() + static_cast<std::ptrdiff_t>(idx));
  score_matrix_.erase(score_matrix_.begin() + static_cast<std::ptrdiff_t>(idx));
  if (config_.eviction != SelectorConfig::Eviction::kTwoSet) {
    for (auto& row : score_matrix_) {
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
}

std::shared_ptr<const delta::Estimator> BaseFileSelector::best() const {
  if (candidates_.empty()) return nullptr;
  return candidates_[best_index()];
}

double BaseFileSelector::best_score() const {
  if (candidates_.size() < 2) return 0.0;
  return score(best_index());
}

void BaseFileSelector::flush() {
  candidates_.clear();
  score_matrix_.clear();
  references_.clear();
}

void FirstResponsePolicy::observe(util::BytesView doc) {
  if (!base_) base_ = util::Bytes(doc.begin(), doc.end());
}

const util::Bytes* FirstResponsePolicy::current_base() const {
  return base_ ? &*base_ : nullptr;
}

RandomizedPolicy::RandomizedPolicy(SelectorConfig config, std::uint64_t seed)
    : selector_(config, seed) {}

void RandomizedPolicy::observe(util::BytesView doc) {
  if (first_) {
    selector_.admit(doc);
    first_ = false;
    return;
  }
  selector_.observe(doc);
}

const util::Bytes* RandomizedPolicy::current_base() const {
  const auto best = selector_.best();
  return best != nullptr ? &best->base() : nullptr;
}

void OnlineOptimalPolicy::observe(util::BytesView doc) {
  const std::size_t idx = docs_.size();
  docs_.push_back(std::make_unique<delta::Estimator>(util::Bytes(doc.begin(), doc.end())));
  const delta::Estimator& fresh = *docs_[idx];
  score_.push_back(0.0);
  for (std::size_t j = 0; j < idx; ++j) {
    score_[idx] += static_cast<double>(fresh.estimate(util::as_view(docs_[j]->base())));
    score_[j] += static_cast<double>(docs_[j]->estimate(util::as_view(fresh.base())));
  }
  best_ = static_cast<std::size_t>(
      std::min_element(score_.begin(), score_.end()) - score_.begin());
}

const util::Bytes* OnlineOptimalPolicy::current_base() const {
  return docs_.empty() ? nullptr : &docs_[best_]->base();
}

}  // namespace cbde::core
