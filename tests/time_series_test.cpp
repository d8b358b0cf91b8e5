// Windowed time-series: histogram diffing, window quantiles, and the
// TimeSeriesRecorder's window diffing, derived serve statistics and JSONL export
// (src/obs/time_series.hpp). The diff/quantile tests build HistogramSnapshot
// values by hand.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/time_series.hpp"

namespace cbde::obs {
namespace {

HistogramSnapshot make_snapshot(double unit_scale, std::vector<std::uint64_t> counts,
                                std::uint64_t overflow, std::uint64_t sum) {
  HistogramSnapshot s;
  s.unit_scale = unit_scale;
  s.counts = std::move(counts);
  s.overflow = overflow;
  s.sum = sum;
  s.count = overflow;
  for (std::uint64_t c : s.counts) s.count += c;
  return s;
}

void expect_snapshot_eq(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.unit_scale, b.unit_scale);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.overflow, b.overflow);
  const std::size_t n = std::max(a.counts.size(), b.counts.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t av = i < a.counts.size() ? a.counts[i] : 0;
    const std::uint64_t bv = i < b.counts.size() ? b.counts[i] : 0;
    EXPECT_EQ(av, bv) << "bucket " << i;
  }
}

TEST(TimeSeriesDiff, IdenticalSnapshotsYieldEmptyWindow) {
  const HistogramSnapshot s = make_snapshot(1.0, {0, 3, 5, 0, 2}, 1, 90);
  bool reset = false;
  const HistogramSnapshot d = diff_histogram(s, s, &reset);
  EXPECT_FALSE(reset);
  EXPECT_EQ(d.count, 0u);
  EXPECT_EQ(d.sum, 0u);
  EXPECT_EQ(d.overflow, 0u);
  const HistogramWindow w = summarize_histogram_window(d);
  EXPECT_EQ(w.count, 0u);
  EXPECT_EQ(w.p50, 0.0);
  EXPECT_EQ(w.p95, 0.0);
  EXPECT_EQ(w.p99, 0.0);
}

TEST(TimeSeriesDiff, FreshSeriesIsWholeWindowNotReset) {
  // Against an empty previous snapshot, the whole current one is the window
  // and no reset is flagged.
  const HistogramSnapshot cur = make_snapshot(1.0, {1, 2, 3}, 0, 12);
  bool reset = false;
  const HistogramSnapshot d = diff_histogram(HistogramSnapshot{}, cur, &reset);
  EXPECT_FALSE(reset);
  expect_snapshot_eq(d, cur);
}

TEST(TimeSeriesDiff, BackwardsSeriesIsResetAndFallsBackToCur) {
  // A cumulative histogram only grows; any count/sum/overflow/bucket
  // decrease means the process restarted (or the counter wrapped) — the
  // window falls back to `cur` outright.
  const HistogramSnapshot prev = make_snapshot(1.0, {2, 4, 6}, 3, 200);
  const HistogramSnapshot fewer = make_snapshot(1.0, {1, 4, 6}, 3, 210);
  bool reset = false;
  expect_snapshot_eq(diff_histogram(prev, fewer, &reset), fewer);
  EXPECT_TRUE(reset);

  const HistogramSnapshot sum_back = make_snapshot(1.0, {2, 4, 6}, 3, 199);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, sum_back, &reset), sum_back);
  EXPECT_TRUE(reset);

  const HistogramSnapshot overflow_back = make_snapshot(1.0, {2, 4, 6}, 2, 200);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, overflow_back, &reset), overflow_back);
  EXPECT_TRUE(reset);

  const HistogramSnapshot shrunk = make_snapshot(1.0, {2, 4}, 3, 200);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, shrunk, &reset), shrunk);
  EXPECT_TRUE(reset);
}

TEST(TimeSeriesDiff, BucketwiseDeltaAgainstGrownSeries) {
  const HistogramSnapshot prev = make_snapshot(1.0, {1, 0, 2}, 1, 50);
  // cur grew a trailing bucket prev never had; the diff treats the missing
  // prev bucket as zero.
  const HistogramSnapshot cur = make_snapshot(1.0, {3, 1, 2, 7}, 4, 260);
  bool reset = false;
  const HistogramSnapshot d = diff_histogram(prev, cur, &reset);
  EXPECT_FALSE(reset);
  ASSERT_EQ(d.counts.size(), 4u);
  EXPECT_EQ(d.counts[0], 2u);
  EXPECT_EQ(d.counts[1], 1u);
  EXPECT_EQ(d.counts[2], 0u);
  EXPECT_EQ(d.counts[3], 7u);
  EXPECT_EQ(d.overflow, 3u);
  EXPECT_EQ(d.count, 13u);
  EXPECT_EQ(d.sum, 210u);
}

TEST(TimeSeriesQuantile, EmptyWindowIsZero) {
  const HistogramSnapshot empty = make_snapshot(1.0, {}, 0, 0);
  EXPECT_EQ(histogram_window_quantile(empty, 0.5), 0.0);
  EXPECT_EQ(histogram_window_quantile(empty, 0.99), 0.0);
  // q outside (0, 1] is rejected the same way.
  const HistogramSnapshot one = make_snapshot(1.0, {5}, 0, 0);
  EXPECT_EQ(histogram_window_quantile(one, 0.0), 0.0);
  EXPECT_EQ(histogram_window_quantile(one, -1.0), 0.0);
}

TEST(TimeSeriesQuantile, SingleBucketWindowPinsEveryQuantile) {
  // All mass in one bucket: every quantile reads that bucket's upper bound,
  // scaled by unit_scale.
  const std::size_t bucket = 11;
  std::vector<std::uint64_t> counts(bucket + 1, 0);
  counts[bucket] = 42;
  const HistogramSnapshot w = make_snapshot(1e-6, std::move(counts), 0, 0);
  const double bound = Histogram::upper_bound(bucket) * 1e-6;
  EXPECT_DOUBLE_EQ(histogram_window_quantile(w, 0.01), bound);
  EXPECT_DOUBLE_EQ(histogram_window_quantile(w, 0.50), bound);
  EXPECT_DOUBLE_EQ(histogram_window_quantile(w, 0.99), bound);
  EXPECT_DOUBLE_EQ(histogram_window_quantile(w, 1.00), bound);
  const HistogramWindow s = summarize_histogram_window(w);
  EXPECT_DOUBLE_EQ(s.p50, bound);
  EXPECT_DOUBLE_EQ(s.p95, bound);
  EXPECT_DOUBLE_EQ(s.p99, bound);
}

TEST(TimeSeriesQuantile, OverflowRankClampsToLargestFiniteBound) {
  // A window that is pure overflow must still export a finite number: the
  // quantile clamps to the largest finite bucket bound.
  const HistogramSnapshot w = make_snapshot(1.0, {}, 9, 0);
  const double expected = Histogram::upper_bound(Histogram::num_buckets() - 2);
  const double p99 = histogram_window_quantile(w, 0.99);
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_DOUBLE_EQ(p99, expected);
  EXPECT_DOUBLE_EQ(histogram_window_quantile(w, 0.5), expected);
}

TEST(TimeSeriesQuantile, QuantilesAreMonotonicInQ) {
  std::mt19937_64 rng(20260808u);
  for (int round = 0; round < 16; ++round) {
    std::vector<std::uint64_t> counts(24);
    for (auto& c : counts) c = rng() % 7;
    const HistogramSnapshot w =
        make_snapshot(1.0, std::move(counts), rng() % 3, 0);
    if (w.count == 0) continue;
    const double p50 = histogram_window_quantile(w, 0.50);
    const double p95 = histogram_window_quantile(w, 0.95);
    const double p99 = histogram_window_quantile(w, 0.99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
  }
}

TEST(TimeSeriesQuantile, MergeThenDiffEquivalence) {
  // Property (seeded): diffing a series across a window equals a histogram
  // that observed only the window's samples. Exercises the finite buckets
  // and the overflow path (values past 2^kMaxExponent).
  std::mt19937_64 rng(0xCBDEu);
  MetricsRegistry reg;
  Histogram& cumulative =  // lint: obs-ok validation test
      reg.histogram("cbde_test_ts_cumulative_bytes", "diff property");
  Histogram& window_only =  // lint: obs-ok validation test
      reg.histogram("cbde_test_ts_window_bytes", "diff property");
  const auto draw = [&]() -> std::uint64_t {
    if (rng() % 16 == 0) return (1ull << 45) + rng() % 1024;  // overflow bucket
    return rng() % (1ull << 20);
  };
  for (int i = 0; i < 200; ++i) cumulative.observe(draw());
  const HistogramSnapshot before =
      reg.snapshot().at("cbde_test_ts_cumulative_bytes").histogram;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t v = draw();
    cumulative.observe(v);
    window_only.observe(v);
  }
  const auto snap = reg.snapshot();
  bool reset = false;
  const HistogramSnapshot diffed = diff_histogram(
      before, snap.at("cbde_test_ts_cumulative_bytes").histogram, &reset);
  EXPECT_FALSE(reset);
  expect_snapshot_eq(diffed, snap.at("cbde_test_ts_window_bytes").histogram);
  const HistogramWindow a = summarize_histogram_window(diffed);
  const HistogramWindow b = summarize_histogram_window(
      snap.at("cbde_test_ts_window_bytes").histogram);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

TEST(TimeSeriesRecorderTest, ManualTicksDiffCountersAndNumberTheWindows) {
  MetricsRegistry reg;
  Counter& c = reg.counter("cbde_test_ts_ticks_total", "tick deltas");  // lint: obs-ok validation test
  Gauge& g = reg.gauge("cbde_test_ts_depth", "gauge passthrough");  // lint: obs-ok validation test
  TimeSeriesRecorder recorder(reg);

  c.add(5);
  g.set(7);
  const TimeSeriesWindow w1 = recorder.tick();
  EXPECT_EQ(w1.tick, 1u);
  EXPECT_FALSE(w1.reset);
  EXPECT_DOUBLE_EQ(w1.counter_delta.at("cbde_test_ts_ticks_total"), 5.0);
  EXPECT_EQ(w1.gauge.at("cbde_test_ts_depth"), 7);
  EXPECT_GE(w1.counter_rate.at("cbde_test_ts_ticks_total"), 0.0);

  c.add(3);
  const TimeSeriesWindow w2 = recorder.tick();
  EXPECT_EQ(w2.tick, 2u);
  EXPECT_DOUBLE_EQ(w2.counter_delta.at("cbde_test_ts_ticks_total"), 3.0);

  const TimeSeriesWindow w3 = recorder.tick();
  EXPECT_EQ(w3.tick, 3u);
  EXPECT_DOUBLE_EQ(w3.counter_delta.at("cbde_test_ts_ticks_total"), 0.0);
}

TEST(TimeSeriesRecorderTest, SeriesRegisteredBetweenTicksIsOneWholeWindow) {
  // A seconds-scaled lock-wait site registered after the previous snapshot
  // has nothing to diff against: its first window is everything it
  // observed, and that is not a reset.
  MetricsRegistry reg;
  TimeSeriesRecorder recorder(reg);
  EXPECT_TRUE(recorder.tick().histogram.empty());
  Histogram& wait =  // lint: obs-ok validation test
      reg.histogram("cbde_lock_wait_seconds_late_site", "late wait", 1e-6);
  wait.observe(40);
  wait.observe(2000);
  const TimeSeriesWindow first = recorder.tick();
  EXPECT_FALSE(first.reset);
  const HistogramWindow& whole = first.histogram.at("cbde_lock_wait_seconds_late_site");
  EXPECT_FALSE(whole.reset);
  EXPECT_EQ(whole.count, 2u);
  EXPECT_DOUBLE_EQ(whole.sum, 2040 * 1e-6);
  EXPECT_DOUBLE_EQ(whole.p99, Histogram::upper_bound(Histogram::bucket_index(2000)) * 1e-6);

  // From then on it diffs like any other series.
  wait.observe(40);
  const TimeSeriesWindow second = recorder.tick();
  EXPECT_FALSE(second.reset);
  EXPECT_EQ(second.histogram.at("cbde_lock_wait_seconds_late_site").count, 1u);
}

TEST(TimeSeriesRecorderTest, DerivedServeStatsFromServeHistogram) {
  MetricsRegistry reg;
  Histogram& serve = reg.histogram("cbde_server_serve_microseconds", "serve");  // lint: obs-ok validation test
  Histogram& wait =  // lint: obs-ok validation test
      reg.histogram("cbde_lock_wait_seconds_test_site", "wait", 1e-6);

  TimeSeriesRecorder recorder(reg);
  for (int i = 0; i < 30; ++i) serve.observe(100);
  for (int i = 0; i < 10; ++i) serve.observe(300);
  wait.observe(50);
  const TimeSeriesWindow w = recorder.tick();

  EXPECT_EQ(w.serve_requests, 40u);
  EXPECT_GT(w.serve_p50_us, 0.0);
  EXPECT_LT(w.serve_p50_us, w.serve_p99_us);  // the 300 us tail
  EXPECT_EQ(w.serve_p50_us, w.histogram.at("cbde_server_serve_microseconds").p50);
  // 50 us of lock wait over 6,000 us of serve time (histogram sums are
  // exact, unlike their bucket bounds).
  EXPECT_NEAR(w.lock_wait_share, 50.0 / 6000.0, 1e-12);

  const std::string line = TimeSeriesRecorder::to_jsonl(w);
  EXPECT_NE(line.find("\"serve_requests\":40"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
}

TEST(TimeSeriesRecorderTest, ToJsonlSchemaFields) {
  TimeSeriesWindow w;
  w.tick = 3;
  w.wall_us = 123456;
  w.span_seconds = 0.5;
  w.reset = true;
  w.counter_delta["cbde_x_total"] = 4.0;
  w.counter_rate["cbde_x_total"] = 8.0;
  w.gauge["cbde_depth"] = -2;
  HistogramWindow h;
  h.count = 2;
  h.sum = 10.0;
  h.p50 = 4.0;
  h.p95 = 8.0;
  h.p99 = 8.0;
  w.histogram["cbde_h_microseconds"] = h;
  w.serve_requests = 2;
  w.lock_wait_share = 0.25;
  const std::string line = TimeSeriesRecorder::to_jsonl(w);
  for (const char* needle :
       {"\"tick\":3", "\"wall_us\":123456", "\"span_seconds\":0.5",
        "\"reset\":true", "\"cbde_x_total\":4", "\"counter_rate\"",
        "\"cbde_depth\":-2", "\"cbde_h_microseconds\"", "\"count\":2",
        "\"p99\":8", "\"serve_requests\":2", "\"lock_wait_share\":0.25"}) {
    EXPECT_NE(line.find(needle), std::string::npos) << "missing " << needle;
  }
}

// Ticks from the test thread while four writers add and observe: under the
// ci.sh TSan stage this races every snapshot against live writers.
TEST(ObsConcurrency, RecorderTicksRaceWithWriters) {
  MetricsRegistry reg;
  Counter& c = reg.counter("cbde_test_ts_race_total", "racing adds");  // lint: obs-ok validation test
  Histogram& h =  // lint: obs-ok validation test
      reg.histogram("cbde_test_ts_race_microseconds", "racing observes");
  TimeSeriesRecorder recorder(reg);

  constexpr int kThreads = 4;
  constexpr int kAddsPerThread = 2000;
  std::atomic<int> finished{0};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&c, &h, &finished] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        c.add(1);
        h.observe(static_cast<std::uint64_t>(i % 64));
      }
      finished.fetch_add(1);
    });
  }
  std::vector<TimeSeriesWindow> windows;
  do {
    windows.push_back(recorder.tick());
  } while (finished.load() < kThreads);
  for (auto& w : writers) w.join();
  windows.push_back(recorder.tick());  // closes over everything the writers did

  double total_delta = 0.0;
  std::uint64_t observed = 0;
  for (const TimeSeriesWindow& w : windows) {
    EXPECT_FALSE(w.reset) << "tick " << w.tick;
    total_delta += w.counter_delta.at("cbde_test_ts_race_total");
    observed += w.histogram.at("cbde_test_ts_race_microseconds").count;
  }
  // Every add and every observation lands in exactly one window.
  EXPECT_DOUBLE_EQ(total_delta, static_cast<double>(kThreads) * kAddsPerThread);
  EXPECT_EQ(observed, static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

}  // namespace
}  // namespace cbde::obs
