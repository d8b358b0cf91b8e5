#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/contracts.hpp"

namespace cbde::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double d = x - mean_;
  mean_ += d / static_cast<double>(n_);
  m2_ += d * (x - mean_);
}

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double Samples::mean() const {
  if (values_.empty()) return 0.0;
  return sum() / static_cast<double>(values_.size());
}

double Samples::sum() const { return std::accumulate(values_.begin(), values_.end(), 0.0); }

double Samples::stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = mean();
  double acc = 0.0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Samples::min() const {
  return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

double Samples::percentile(double q) const {
  CBDE_EXPECT(q >= 0.0 && q <= 1.0);
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

void Histogram::add(std::size_t value) {
  if (value < counts_.size() - 1) {
    ++counts_[value];
  } else {
    ++counts_.back();
  }
}

std::uint64_t Histogram::bucket(std::size_t i) const {
  CBDE_EXPECT(i < counts_.size() - 1);
  return counts_[i];
}

std::uint64_t Histogram::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

}  // namespace cbde::util
