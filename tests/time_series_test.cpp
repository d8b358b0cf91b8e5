// Windowed time-series: histogram diffing, window quantiles, shard-series
// parsing, and the TimeSeriesRecorder's window diffing and JSONL export
// (src/obs/time_series.hpp). The diff/quantile tests build HistogramSnapshot
// values by hand.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/obs.hpp"
#include "obs/time_series.hpp"

namespace cbde::obs {
namespace {

HistogramSnapshot make_snapshot(std::size_t sub_buckets, double unit_scale,
                                std::vector<std::uint64_t> counts,
                                std::uint64_t overflow, std::uint64_t sum) {
  HistogramSnapshot s;
  s.sub_buckets = sub_buckets;
  s.unit_scale = unit_scale;
  s.counts = std::move(counts);
  s.overflow = overflow;
  s.sum = sum;
  s.count = overflow;
  for (std::uint64_t c : s.counts) s.count += c;
  return s;
}

void expect_snapshot_eq(const HistogramSnapshot& a, const HistogramSnapshot& b) {
  EXPECT_EQ(a.sub_buckets, b.sub_buckets);
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
  const HistogramSnapshot s = make_snapshot(4, 1.0, {0, 3, 5, 0, 2}, 1, 90);
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
  // prev.sub_buckets == 0 means "the series appeared mid-flight": the whole
  // current snapshot is the window and no reset is flagged.
  const HistogramSnapshot cur = make_snapshot(8, 1.0, {1, 2, 3}, 0, 12);
  bool reset = false;
  const HistogramSnapshot d = diff_histogram(HistogramSnapshot{}, cur, &reset);
  EXPECT_FALSE(reset);
  expect_snapshot_eq(d, cur);
}

TEST(TimeSeriesDiff, ResolutionOrScaleMismatchIsReset) {
  const HistogramSnapshot prev = make_snapshot(4, 1.0, {1}, 0, 1);
  const HistogramSnapshot cur8 = make_snapshot(8, 1.0, {5}, 0, 5);
  bool reset = false;
  expect_snapshot_eq(diff_histogram(prev, cur8, &reset), cur8);
  EXPECT_TRUE(reset);

  const HistogramSnapshot cur_scaled = make_snapshot(4, 1e-6, {5}, 0, 5);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, cur_scaled, &reset), cur_scaled);
  EXPECT_TRUE(reset);
}

TEST(TimeSeriesDiff, BackwardsSeriesIsResetAndFallsBackToCur) {
  // A cumulative histogram only grows; any count/sum/overflow/bucket
  // decrease means the process restarted (or the counter wrapped) — the
  // window falls back to `cur` outright.
  const HistogramSnapshot prev = make_snapshot(4, 1.0, {2, 4, 6}, 3, 200);
  const HistogramSnapshot fewer = make_snapshot(4, 1.0, {1, 4, 6}, 3, 210);
  bool reset = false;
  expect_snapshot_eq(diff_histogram(prev, fewer, &reset), fewer);
  EXPECT_TRUE(reset);

  const HistogramSnapshot sum_back = make_snapshot(4, 1.0, {2, 4, 6}, 3, 199);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, sum_back, &reset), sum_back);
  EXPECT_TRUE(reset);

  const HistogramSnapshot overflow_back = make_snapshot(4, 1.0, {2, 4, 6}, 2, 200);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, overflow_back, &reset), overflow_back);
  EXPECT_TRUE(reset);

  const HistogramSnapshot shrunk = make_snapshot(4, 1.0, {2, 4}, 3, 200);
  reset = false;
  expect_snapshot_eq(diff_histogram(prev, shrunk, &reset), shrunk);
  EXPECT_TRUE(reset);
}

TEST(TimeSeriesDiff, BucketwiseDeltaAgainstGrownSeries) {
  const HistogramSnapshot prev = make_snapshot(4, 1.0, {1, 0, 2}, 1, 50);
  // cur grew a trailing bucket prev never had; the diff treats the missing
  // prev bucket as zero.
  const HistogramSnapshot cur = make_snapshot(4, 1.0, {3, 1, 2, 7}, 4, 260);
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
  const HistogramSnapshot empty = make_snapshot(4, 1.0, {}, 0, 0);
  EXPECT_EQ(histogram_window_quantile(empty, 0.5), 0.0);
  EXPECT_EQ(histogram_window_quantile(empty, 0.99), 0.0);
  // q outside (0, 1] is rejected the same way.
  const HistogramSnapshot one = make_snapshot(4, 1.0, {5}, 0, 0);
  EXPECT_EQ(histogram_window_quantile(one, 0.0), 0.0);
  EXPECT_EQ(histogram_window_quantile(one, -1.0), 0.0);
}

TEST(TimeSeriesQuantile, SingleBucketWindowPinsEveryQuantile) {
  // All mass in one bucket: every quantile reads that bucket's upper bound,
  // scaled by unit_scale.
  const std::size_t sub = 8;
  const std::size_t bucket = 11;
  std::vector<std::uint64_t> counts(bucket + 1, 0);
  counts[bucket] = 42;
  const HistogramSnapshot w = make_snapshot(sub, 1e-6, std::move(counts), 0, 0);
  const double bound = Histogram::upper_bound_for(sub, bucket) * 1e-6;
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
  // quantile clamps to the largest finite bucket bound for the resolution.
  const std::size_t sub = 4;
  const HistogramSnapshot w = make_snapshot(sub, 1.0, {}, 9, 0);
  const unsigned log2_sub = 2;
  const std::size_t last_finite =
      sub + (Histogram::kMaxExponent - log2_sub) * sub - 1;
  const double expected = Histogram::upper_bound_for(sub, last_finite);
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
        make_snapshot(8, 1.0, std::move(counts), rng() % 3, 0);
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
      reg.histogram("cbde_test_ts_cumulative_bytes", "diff property", 8);
  Histogram& window_only =  // lint: obs-ok validation test
      reg.histogram("cbde_test_ts_window_bytes", "diff property", 8);
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

TEST(TimeSeriesParse, ShardSeriesNames) {
  std::size_t shard = 999;
  EXPECT_TRUE(parse_shard_series("cbde_shard_0_requests_total",
                                 "requests_total", &shard));
  EXPECT_EQ(shard, 0u);
  EXPECT_TRUE(parse_shard_series("cbde_shard_12_serve_microseconds",
                                 "serve_microseconds", &shard));
  EXPECT_EQ(shard, 12u);
  // Rejections: no digits, digits without the separating underscore, a
  // different suffix, and names outside the family.
  EXPECT_FALSE(parse_shard_series("cbde_shard__requests_total",
                                  "requests_total", &shard));
  EXPECT_FALSE(parse_shard_series("cbde_shard_3requests_total",
                                  "requests_total", &shard));
  EXPECT_FALSE(parse_shard_series("cbde_shard_3_requests_total",
                                  "serve_microseconds", &shard));
  EXPECT_FALSE(parse_shard_series("cbde_other_3_requests_total",
                                  "requests_total", &shard));
  EXPECT_FALSE(parse_shard_series("cbde_shard_3_requests_total_more",
                                  "requests_total", &shard));
}

TEST(TimeSeriesParse, ShardMetricNameRoundTrips) {
  const std::string name = shard_metric_name("cbde_shard_requests_total", 3);
  EXPECT_EQ(name, "cbde_shard_3_requests_total");
  std::size_t shard = 0;
  EXPECT_TRUE(parse_shard_series(name, "requests_total", &shard));
  EXPECT_EQ(shard, 3u);
  EXPECT_THROW(shard_metric_name("cbde_other_requests_total", 0),
               std::invalid_argument);
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

TEST(TimeSeriesRecorderTest, DerivedShardStatsFromRegisteredFamilies) {
  MetricsRegistry reg;
  Counter& shard0 = reg.counter(
      shard_metric_name("cbde_shard_requests_total", 0), "s0");  // lint: obs-ok validation test
  Counter& shard1 = reg.counter(
      shard_metric_name("cbde_shard_requests_total", 1), "s1");  // lint: obs-ok validation test
  Histogram& serve0 = reg.histogram(
      shard_metric_name("cbde_shard_serve_microseconds", 0), "s0", 8);  // lint: obs-ok validation test
  Histogram& serve1 = reg.histogram(
      shard_metric_name("cbde_shard_serve_microseconds", 1), "s1", 8);  // lint: obs-ok validation test
  Histogram& wait =  // lint: obs-ok validation test
      reg.histogram("cbde_lock_wait_seconds_test_site", "wait", 8, 1e-6);

  TimeSeriesRecorder recorder(reg);
  shard0.add(30);
  shard1.add(10);
  for (int i = 0; i < 30; ++i) serve0.observe(100);
  for (int i = 0; i < 10; ++i) serve1.observe(300);
  wait.observe(50);
  // The window needs nonzero wall span for rates; 2ms is comfortably above
  // the clock's granularity.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const TimeSeriesWindow w = recorder.tick();

  ASSERT_EQ(w.shard_rate.size(), 2u);
  EXPECT_GT(w.shard_rate[0], w.shard_rate[1]);
  // The imbalance coefficient comes from the window's request counts, so it
  // is span-free and exact: max(30,10)/mean(30,10) = 1.5.
  EXPECT_EQ(w.imbalance, 1.5);
  EXPECT_EQ(w.serve_requests, 40u);
  EXPECT_GT(w.serve_p50_us, 0.0);
  EXPECT_LE(w.serve_p50_us, w.serve_p99_us);
  EXPECT_GT(w.lock_wait_share, 0.0);

  const std::string line = TimeSeriesRecorder::to_jsonl(w);
  EXPECT_NE(line.find("\"shard_rate\":["), std::string::npos);
  // Parse the exported number instead of matching its text.
  const std::size_t at = line.find("\"imbalance\":");
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::strtod(line.c_str() + at + std::strlen("\"imbalance\":"), nullptr), 1.5);
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
  w.shard_rate = {8.0};
  w.imbalance = 1.0;
  w.serve_requests = 2;
  w.lock_wait_share = 0.25;
  const std::string line = TimeSeriesRecorder::to_jsonl(w);
  for (const char* needle :
       {"\"tick\":3", "\"wall_us\":123456", "\"span_seconds\":0.5",
        "\"reset\":true", "\"cbde_x_total\":4", "\"counter_rate\"",
        "\"cbde_depth\":-2", "\"cbde_h_microseconds\"", "\"count\":2",
        "\"p99\":8", "\"shard_rate\":[8]", "\"imbalance\":1",
        "\"serve_requests\":2", "\"lock_wait_share\":0.25"}) {
    EXPECT_NE(line.find(needle), std::string::npos) << "missing " << needle;
  }
}

// Ticks from the test thread while four writers add and observe: under the
// ci.sh TSan stage this races every snapshot against live writers.
TEST(ObsConcurrency, RecorderTicksRaceWithWriters) {
  MetricsRegistry reg;
  Counter& c = reg.counter("cbde_test_ts_race_total", "racing adds");  // lint: obs-ok validation test
  Histogram& h =  // lint: obs-ok validation test
      reg.histogram("cbde_test_ts_race_microseconds", "racing observes", 4);
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
