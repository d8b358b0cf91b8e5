// Windowed time-series over the MetricsRegistry (docs/OBSERVABILITY.md,
// "Time-series recorder").
//
// Cumulative counters and one-shot histograms answer "how much, ever"; the
// capacity questions of §VI-C need "how much, per window": request rates,
// latency quantiles that drift over a replay, lock-wait share. The
// TimeSeriesRecorder snapshots the registry at each tick() and diffs the
// snapshot against the previous one into a TimeSeriesWindow — counter
// deltas/rates, gauge values, histogram-diff quantiles (the log-linear
// buckets merge and therefore also *diff* bucket-by-bucket) — keyed by a
// monotonic tick. The caller decides when a window closes and keeps the
// windows it wants; to_jsonl() renders one as a JSONL line.
//
// Derived per-window statistics (all computed from the diffed buckets, no
// extra instrumentation):
//   * serve quantiles — count and p50/p95/p99 of
//                       cbde_server_serve_microseconds (µs);
//   * lock_wait_share — Δ seconds spent waiting in cbde_lock_wait_seconds_*
//                       over Δ seconds of serve work. Can exceed 1 when many
//                       workers pile on one lock.
//
// Concurrency: ticks serialize on the recorder's own mu_, which is never
// held while the registry is snapshotted, so it nests with no other mutex.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics_registry.hpp"
#include "util/thread_annotations.hpp"

namespace cbde::obs {

/// One histogram's contribution to a window: observations that happened
/// inside the window, summarized. Quantities are scaled by the histogram's
/// unit_scale (so lock-wait windows read in seconds).
struct HistogramWindow {
  std::uint64_t count = 0;
  double sum = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  bool reset = false;  ///< the cumulative series went backwards
};

struct TimeSeriesWindow {
  std::uint64_t tick = 0;     ///< monotonic, first window is 1
  std::uint64_t wall_us = 0;  ///< now_us() at the closing snapshot
  double span_seconds = 0.0;  ///< wall time since the previous snapshot
  bool reset = false;         ///< any series went backwards this window
  std::map<std::string, double> counter_delta;
  std::map<std::string, double> counter_rate;  ///< delta / span_seconds
  std::map<std::string, std::int64_t> gauge;
  std::map<std::string, HistogramWindow> histogram;
  // Derived serve statistics (zero when the registry carries no serve
  // histogram).
  std::uint64_t serve_requests = 0;
  double serve_p50_us = 0.0;
  double serve_p95_us = 0.0;
  double serve_p99_us = 0.0;
  double lock_wait_share = 0.0;
};

/// Bucketwise `cur - prev` of one series (so of one unit_scale). A
/// cumulative histogram only grows; any bucket, count or sum going backwards
/// means the underlying series was reset (new process, wraparound) — then
/// the window falls back to `cur` outright and `*reset` is set.
HistogramSnapshot diff_histogram(const HistogramSnapshot& prev,
                                 const HistogramSnapshot& cur, bool* reset);

/// Quantile over one window of buckets: the scaled upper bound of the
/// bucket containing rank ceil(q * count). 0 on an empty window; +infinity
/// when the rank lands in the overflow bucket. `q` in (0, 1].
double histogram_window_quantile(const HistogramSnapshot& window, double q);

/// count/sum/p50/p95/p99 of one diffed window (scaled by unit_scale).
HistogramWindow summarize_histogram_window(const HistogramSnapshot& window);

class TimeSeriesRecorder {
 public:
  /// Takes the epoch snapshot immediately, so the first tick() covers
  /// activity since construction. `registry` must outlive the recorder.
  explicit TimeSeriesRecorder(MetricsRegistry& registry);

  TimeSeriesRecorder(const TimeSeriesRecorder&) = delete;
  TimeSeriesRecorder& operator=(const TimeSeriesRecorder&) = delete;

  /// Close the current window: snapshot the registry and diff it against
  /// the previous snapshot. Serializes with concurrent ticks; safe
  /// alongside live writers (the snapshot is per-metric atomic —
  /// cross-metric skew is bounded by one window).
  TimeSeriesWindow tick() EXCLUDES(mu_);

  /// One JSONL line (newline included) — the export schema
  /// (docs/OBSERVABILITY.md, "Time-series schema").
  static std::string to_jsonl(const TimeSeriesWindow& w);

 private:
  TimeSeriesWindow build_window(const std::map<std::string, MetricSample>& prev,
                                const std::map<std::string, MetricSample>& cur,
                                std::uint64_t prev_wall_us, std::uint64_t wall_us,
                                std::uint64_t tick) const;

  MetricsRegistry& registry_;

  Mutex mu_;
  std::uint64_t next_tick_ GUARDED_BY(mu_) = 1;
  std::uint64_t prev_wall_us_ GUARDED_BY(mu_) = 0;
  std::map<std::string, MetricSample> prev_ GUARDED_BY(mu_);
};

}  // namespace cbde::obs
