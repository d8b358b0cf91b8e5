// Descriptive statistics used by benches and the simulation metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace cbde::util {

/// Streaming mean / variance (Welford). O(1) memory; no percentiles.
class OnlineStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Buffered sample set with percentiles. Keeps every sample; use for
/// bench-scale data (up to a few million values).
class Samples {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  double sum() const;
  /// q in [0,1]; linear interpolation between order statistics.
  double percentile(double q) const;
  double median() const { return percentile(0.5); }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Fixed-bucket histogram for integer-valued observations (e.g. tries to
/// group a request). Values beyond the last bucket land in an overflow bin.
class Histogram {
 public:
  explicit Histogram(std::size_t buckets) : counts_(buckets + 1, 0) {}

  void add(std::size_t value);
  std::uint64_t bucket(std::size_t i) const;
  std::uint64_t overflow() const { return counts_.back(); }
  std::uint64_t total() const;
  std::size_t buckets() const { return counts_.size() - 1; }

 private:
  std::vector<std::uint64_t> counts_;
};

}  // namespace cbde::util
