#include "obs/time_series.hpp"

#include <bit>
#include <cmath>

#include "obs/json.hpp"
#include "obs/trace_span.hpp"

namespace cbde::obs {
namespace {

/// Index of the largest finite bucket for a resolution (quantiles that land
/// in the overflow bucket clamp here — see histogram_window_quantile).
std::size_t last_finite_bucket(std::size_t sub_buckets) noexcept {
  const unsigned log2_sub = static_cast<unsigned>(std::countr_zero(sub_buckets));
  return sub_buckets + (Histogram::kMaxExponent - log2_sub) * sub_buckets - 1;
}

}  // namespace

HistogramSnapshot diff_histogram(const HistogramSnapshot& prev,
                                 const HistogramSnapshot& cur, bool* reset) {
  // A prev with sub_buckets 0 is "no previous sample" (the series appeared
  // mid-flight): the whole current snapshot is the window, and that is not
  // a reset.
  if (prev.sub_buckets == 0) return cur;
  const auto fall_back_to_cur = [&]() {
    if (reset != nullptr) *reset = true;
    return cur;
  };
  if (prev.sub_buckets != cur.sub_buckets || prev.unit_scale != cur.unit_scale) {
    return fall_back_to_cur();
  }
  if (cur.count < prev.count || cur.sum < prev.sum || cur.overflow < prev.overflow ||
      cur.counts.size() < prev.counts.size()) {
    return fall_back_to_cur();
  }
  HistogramSnapshot out;
  out.sub_buckets = cur.sub_buckets;
  out.unit_scale = cur.unit_scale;
  out.counts.resize(cur.counts.size());
  for (std::size_t i = 0; i < cur.counts.size(); ++i) {
    const std::uint64_t before = i < prev.counts.size() ? prev.counts[i] : 0;
    if (cur.counts[i] < before) return fall_back_to_cur();
    out.counts[i] = cur.counts[i] - before;
    out.count += out.counts[i];
  }
  out.overflow = cur.overflow - prev.overflow;
  out.count += out.overflow;
  out.sum = cur.sum - prev.sum;
  return out;
}

double histogram_window_quantile(const HistogramSnapshot& window, double q) {
  if (window.count == 0 || !(q > 0.0)) return 0.0;
  const double clamped = q > 1.0 ? 1.0 : q;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped * static_cast<double>(window.count)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < window.counts.size(); ++i) {
    cumulative += window.counts[i];
    if (cumulative >= rank) {
      return Histogram::upper_bound_for(window.sub_buckets, i) * window.unit_scale;
    }
  }
  // The rank lands in the overflow bucket; clamp to the largest finite bound
  // so every export stays a finite JSON number.
  return Histogram::upper_bound_for(window.sub_buckets,
                                    last_finite_bucket(window.sub_buckets)) *
         window.unit_scale;
}

HistogramWindow summarize_histogram_window(const HistogramSnapshot& window) {
  HistogramWindow out;
  out.count = window.count;
  out.sum = static_cast<double>(window.sum) * window.unit_scale;
  out.p50 = histogram_window_quantile(window, 0.50);
  out.p95 = histogram_window_quantile(window, 0.95);
  out.p99 = histogram_window_quantile(window, 0.99);
  return out;
}

TimeSeriesRecorder::TimeSeriesRecorder(MetricsRegistry& registry)
    : registry_(registry) {
  prev_ = registry_.snapshot();
  prev_wall_us_ = now_us();
}

TimeSeriesWindow TimeSeriesRecorder::tick() {
  // Snapshot before taking mu_, so the registry lock and the recorder lock
  // never nest.
  std::map<std::string, MetricSample> cur = registry_.snapshot();
  const std::uint64_t wall = now_us();
  const LockGuard lock(mu_);
  TimeSeriesWindow window = build_window(prev_, cur, prev_wall_us_, wall, next_tick_++);
  prev_ = std::move(cur);
  prev_wall_us_ = wall;
  return window;
}

TimeSeriesWindow TimeSeriesRecorder::build_window(
    const std::map<std::string, MetricSample>& prev,
    const std::map<std::string, MetricSample>& cur, std::uint64_t prev_wall_us,
    std::uint64_t wall_us, std::uint64_t tick) const {
  TimeSeriesWindow w;
  w.tick = tick;
  w.wall_us = wall_us;
  w.span_seconds =
      wall_us > prev_wall_us ? static_cast<double>(wall_us - prev_wall_us) / 1e6 : 0.0;

  // Derived statistics read the diffed buckets, not just the quantiles.
  double lock_wait_seconds = 0.0;
  for (const auto& [name, sample] : cur) {
    const auto pit = prev.find(name);
    const MetricSample* before =
        (pit != prev.end() && pit->second.kind == sample.kind) ? &pit->second : nullptr;
    switch (sample.kind) {
      case MetricKind::kCounter: {
        const std::uint64_t prev_value = before != nullptr ? before->counter : 0;
        double delta = 0.0;
        if (sample.counter < prev_value) {
          w.reset = true;  // wraparound / restarted series: the window is cur
          delta = static_cast<double>(sample.counter);
        } else {
          delta = static_cast<double>(sample.counter - prev_value);
        }
        w.counter_delta[name] = delta;
        w.counter_rate[name] = w.span_seconds > 0 ? delta / w.span_seconds : 0.0;
        break;
      }
      case MetricKind::kGauge:
        w.gauge[name] = sample.gauge;
        break;
      case MetricKind::kHistogram: {
        bool reset = false;
        const HistogramSnapshot d = diff_histogram(
            before != nullptr ? before->histogram : HistogramSnapshot{},
            sample.histogram, &reset);
        if (reset) w.reset = true;
        HistogramWindow hw = summarize_histogram_window(d);
        hw.reset = reset;
        w.histogram.emplace(name, hw);
        if (name == "cbde_server_serve_microseconds") {
          w.serve_requests = d.count;
          w.serve_p50_us = hw.p50;
          w.serve_p95_us = hw.p95;
          w.serve_p99_us = hw.p99;
        } else if (name.rfind("cbde_lock_wait_seconds", 0) == 0) {
          lock_wait_seconds += hw.sum;
        }
        break;
      }
    }
  }
  // The lock-wait share of the window's serve time.
  if (const auto it = w.histogram.find("cbde_server_serve_microseconds");
      it != w.histogram.end()) {
    const double serve_seconds = it->second.sum / 1e6;
    w.lock_wait_share = serve_seconds > 0 ? lock_wait_seconds / serve_seconds : 0.0;
  }
  return w;
}

std::string TimeSeriesRecorder::to_jsonl(const TimeSeriesWindow& w) {
  std::string out = "{\"tick\":" + std::to_string(w.tick);
  out += ",\"wall_us\":" + std::to_string(w.wall_us);
  out += ",\"span_seconds\":" + format_double(w.span_seconds);
  out += ",\"reset\":";
  out += w.reset ? "true" : "false";
  const auto double_map = [&out](const char* key,
                                 const std::map<std::string, double>& m) {
    out += ",\"";
    out += key;
    out += "\":{";
    bool first = true;
    for (const auto& [name, value] : m) {
      if (!first) out += ",";
      first = false;
      append_json_string(out, name);
      out += ":" + format_double(value);
    }
    out += "}";
  };
  double_map("counter_delta", w.counter_delta);
  double_map("counter_rate", w.counter_rate);
  out += ",\"gauge\":{";
  bool first = true;
  for (const auto& [name, value] : w.gauge) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, name);
    out += ":" + std::to_string(value);
  }
  out += "},\"histogram\":{";
  first = true;
  for (const auto& [name, hw] : w.histogram) {
    if (!first) out += ",";
    first = false;
    append_json_string(out, name);
    out += ":{\"count\":" + std::to_string(hw.count);
    out += ",\"sum\":" + format_double(hw.sum);
    out += ",\"p50\":" + format_double(hw.p50);
    out += ",\"p95\":" + format_double(hw.p95);
    out += ",\"p99\":" + format_double(hw.p99);
    out += ",\"reset\":";
    out += hw.reset ? "true" : "false";
    out += "}";
  }
  out += "},\"serve_requests\":" + std::to_string(w.serve_requests);
  out += ",\"serve_p50_us\":" + format_double(w.serve_p50_us);
  out += ",\"serve_p95_us\":" + format_double(w.serve_p95_us);
  out += ",\"serve_p99_us\":" + format_double(w.serve_p99_us);
  out += ",\"lock_wait_share\":" + format_double(w.lock_wait_share);
  out += "}\n";
  return out;
}

}  // namespace cbde::obs
