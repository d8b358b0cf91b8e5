// MetricsRegistry: named counters, gauges and log-linear histograms with
// snapshot export to Prometheus text exposition format and JSON
// (docs/OBSERVABILITY.md holds the catalog and naming convention
// `cbde_<layer>_<name>[_unit]`, enforced by tools/lint/cbde_lint.py).
//
// Concurrency model — "lock-cheap":
//   * registration (rare) takes the registry Mutex;
//   * the hot path (Counter::add, Gauge::set, Histogram::observe) is a
//     relaxed atomic operation on registry-owned storage — no lock;
//   * snapshot() reads those instruments with relaxed loads (per-metric
//     atomic, not cross-metric consistent), then runs the registry's
//     collector, which fills the collected counters and gauges from the
//     state that owns them under that state's own lock (the delta-server's
//     ledger, read in one critical section). prometheus() and json() render
//     snapshot().
//
// Handles returned by the registry are stable for the registry's lifetime
// (node-based storage); components keep the reference and never look the
// name up again. Registration is idempotent: the same (name, kind) returns
// the existing instrument; a kind or bucket mismatch throws.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/thread_annotations.hpp"

namespace cbde::obs {

/// Monotonic counter (uint64): one relaxed atomic add per add().
class Counter {
 public:
  void add(std::uint64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  void inc() noexcept { add(1); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value. set() is last-writer-wins; prefer add() deltas when
/// several components share one gauge (the proxy caches' size gauge).
class Gauge {
 public:
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<std::int64_t> v_{0};
};

/// Log-linear-bucket histogram for non-negative integer observations
/// (latencies in µs, sizes in bytes).
///
/// Layout, with s = sub_buckets (power of two, k = log2 s):
///   * buckets 0..s-1 hold the exact values 0..s-1;
///   * each power-of-two octave [2^e, 2^(e+1)) for e in [k, kMaxExponent)
///     is split into s linear sub-buckets of width 2^(e-k);
///   * values >= 2^kMaxExponent land in the overflow (+Inf) bucket.
/// Relative error is bounded by 1/s per octave; s=4 gives <= 25%, s=16
/// <= 6.25%. Bucket boundaries depend only on s, so histograms with equal s
/// merge bucket-by-bucket.
class Histogram {
 public:
  /// Values at or above 2^kMaxExponent (~1.1e12: ~12.7 days in µs, ~1 TiB
  /// in bytes) are overflow.
  static constexpr unsigned kMaxExponent = 40;

  void observe(std::uint64_t value) noexcept {
    counts_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::size_t bucket_index(std::uint64_t value) const noexcept {
    if (value < sub_buckets_) return static_cast<std::size_t>(value);
    const unsigned e = static_cast<unsigned>(std::bit_width(value)) - 1;
    if (e >= kMaxExponent) return value_buckets_;  // overflow bucket
    const unsigned shift = e - log2_sub_;
    const std::size_t sub =
        static_cast<std::size_t>((value - (std::uint64_t{1} << e)) >> shift);
    return sub_buckets_ + (e - log2_sub_) * sub_buckets_ + sub;
  }

  /// Largest value belonging to bucket `i` (the Prometheus `le` bound,
  /// inclusive); +infinity for the overflow bucket.
  double upper_bound(std::size_t i) const noexcept {
    return upper_bound_for(sub_buckets_, i);
  }
  /// Same, from the resolution alone — bucket boundaries depend only on
  /// sub_buckets, so snapshots (HistogramSnapshot) can resolve bounds
  /// without the live instrument.
  static double upper_bound_for(std::size_t sub_buckets, std::size_t i) noexcept;

  /// Total buckets including the overflow bucket.
  std::size_t num_buckets() const noexcept { return value_buckets_ + 1; }
  std::size_t sub_buckets() const noexcept { return sub_buckets_; }

  /// Multiplier applied to bucket bounds and the sum at export time (and
  /// nowhere else: observe() stays integer microseconds/bytes on the hot
  /// path). 1.0 for every histogram except the `cbde_lock_wait_seconds_*`
  /// family, which observes microseconds and exports seconds (1e-6) per the
  /// Prometheus base-unit convention.
  double unit_scale() const noexcept { return unit_scale_; }

  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept;
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Histogram(std::size_t sub_buckets, double unit_scale);

  std::size_t sub_buckets_;
  unsigned log2_sub_;
  std::size_t value_buckets_;  ///< buckets before the overflow bucket
  double unit_scale_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };
std::string_view metric_kind_name(MetricKind kind);

/// Point-in-time copy of one histogram, decoupled from the live instrument
/// so windowed consumers (TimeSeriesRecorder) can diff and quantile it
/// offline. `counts` holds the finite buckets trimmed to the highest
/// non-empty index (a missing tail is zero); the overflow (+Inf) bucket is
/// carried separately. Bucket index i bounds via
/// Histogram::upper_bound_for(sub_buckets, i), times unit_scale.
struct HistogramSnapshot {
  std::size_t sub_buckets = 0;
  double unit_scale = 1.0;
  std::uint64_t sum = 0;    ///< raw (unscaled) sum of observations
  std::uint64_t count = 0;  ///< total observations incl. overflow
  std::uint64_t overflow = 0;
  std::vector<std::uint64_t> counts;
};

/// One registry entry at snapshot time. Only the member matching `kind` is
/// meaningful; the rest keep their zero defaults.
struct MetricSample {
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  HistogramSnapshot histogram;
};

/// The metrics a registry's collector fills (MetricsRegistry::set_collector):
/// each declares its name, kind and help once, as an owned registration
/// does, plus the slot of its non-negative value in the span that `Fill`
/// receives on every snapshot().
struct Collector {
  using Fill = std::function<void(std::span<std::uint64_t> values)>;
  struct Declaration {
    std::string name, help;
    MetricKind kind = MetricKind::kCounter;
    std::size_t slot = 0;
  };
  void counter(std::string_view name, std::string_view help, std::size_t slot) {
    declared.push_back({std::string(name), std::string(help), MetricKind::kCounter, slot});
  }
  void gauge(std::string_view name, std::string_view help, std::size_t slot) {
    declared.push_back({std::string(name), std::string(help), MetricKind::kGauge, slot});
  }

  std::vector<Declaration> declared;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register (or fetch) an instrument. Throws std::invalid_argument on an
  /// invalid name, a kind mismatch with an existing registration, or (for
  /// histograms) a sub_buckets mismatch. sub_buckets must be a power of two
  /// in [1, 64].
  Counter& counter(std::string_view name, std::string_view help) EXCLUDES(mu_);
  Gauge& gauge(std::string_view name, std::string_view help) EXCLUDES(mu_);
  /// `unit_scale` multiplies bucket bounds and the sum at export time (see
  /// Histogram::unit_scale); a mismatch with an existing registration
  /// throws, same as a sub_buckets mismatch.
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::size_t sub_buckets = 4, double unit_scale = 1.0)
      EXCLUDES(mu_);

  /// Install the registry's one collector: its names join the registry
  /// without stored values, and snapshot() calls `fill` with zeroed values
  /// after releasing mu_, so `fill` may take the locks guarding what it
  /// reads. Throws std::invalid_argument on a bad or taken name or slot.
  void set_collector(Collector collector, Collector::Fill fill) EXCLUDES(mu_);

  /// Prometheus text exposition format (v0.0.4) of snapshot(). Families
  /// sorted by name; histogram buckets are emitted cumulatively up to the
  /// highest non-empty bound plus the mandatory +Inf bucket.
  std::string prometheus() const EXCLUDES(mu_);

  /// JSON object keyed by metric name (docs/OBSERVABILITY.md gives the
  /// schema), rendered from snapshot() like prometheus().
  std::string json() const EXCLUDES(mu_);

  /// Point-in-time copy of every metric, owned and collected, name-keyed
  /// and sorted: the one export walk. The TimeSeriesRecorder diffs
  /// consecutive snapshots into windows.
  std::map<std::string, MetricSample> snapshot() const EXCLUDES(mu_);

  /// Look up an existing instrument; nullptr when `name` is unregistered, of
  /// a different kind or collected (read values through snapshot()).
  const Counter* find_counter(std::string_view name) const EXCLUDES(mu_);
  const Histogram* find_histogram(std::string_view name) const EXCLUDES(mu_);

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::optional<std::size_t> slot;  ///< set for a collected metric
  };

  Entry& entry_for(std::string_view name, std::string_view help, MetricKind kind)
      REQUIRES(mu_);
  const Entry* find(std::string_view name, MetricKind kind) const EXCLUDES(mu_);

  mutable Mutex mu_;
  /// Node-based map: handles stay valid as the registry grows; iteration is
  /// name-sorted, which makes every export deterministic.
  std::map<std::string, Entry, std::less<>> entries_ GUARDED_BY(mu_);
  std::size_t slots_ GUARDED_BY(mu_) = 0;
  Collector::Fill fill_ GUARDED_BY(mu_);
};

}  // namespace cbde::obs
