#include "obs/metrics_registry.hpp"

#include <limits>
#include <stdexcept>

#include "obs/json.hpp"

namespace cbde::obs {
namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name.front())) return false;
  for (const char c : name) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

[[noreturn]] void bad_registration(std::string_view name, const std::string& why) {
  throw std::invalid_argument("obs: metric '" + std::string(name) + "': " + why);
}

}  // namespace

std::string_view metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

Histogram::Histogram(std::size_t sub_buckets, double unit_scale)
    : sub_buckets_(sub_buckets),
      log2_sub_(static_cast<unsigned>(std::countr_zero(sub_buckets))),
      value_buckets_(sub_buckets + (kMaxExponent - log2_sub_) * sub_buckets),
      unit_scale_(unit_scale),
      counts_(new std::atomic<std::uint64_t>[value_buckets_ + 1]) {
  for (std::size_t i = 0; i <= value_buckets_; ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

double Histogram::upper_bound_for(std::size_t sub_buckets, std::size_t i) noexcept {
  const unsigned log2_sub = static_cast<unsigned>(std::countr_zero(sub_buckets));
  const std::size_t value_buckets =
      sub_buckets + (kMaxExponent - log2_sub) * sub_buckets;
  if (i >= value_buckets) return std::numeric_limits<double>::infinity();
  if (i < sub_buckets) return static_cast<double>(i);
  const std::size_t m = i - sub_buckets;
  const unsigned e = log2_sub + static_cast<unsigned>(m / sub_buckets);
  const std::uint64_t sub = m % sub_buckets;
  const std::uint64_t width = std::uint64_t{1} << (e - log2_sub);
  return static_cast<double>((std::uint64_t{1} << e) + (sub + 1) * width - 1);
}

std::string shard_metric_name(std::string_view base, std::size_t shard) {
  constexpr std::string_view kPrefix = "cbde_shard_";
  if (base.substr(0, kPrefix.size()) != kPrefix) {
    throw std::invalid_argument("obs: shard_metric_name base '" + std::string(base) +
                                "' must start with cbde_shard_");
  }
  std::string out(kPrefix);
  out += std::to_string(shard);
  out += '_';
  out += base.substr(kPrefix.size());
  return out;
}

std::uint64_t Histogram::count() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= value_buckets_; ++i) {
    total += counts_[i].load(std::memory_order_relaxed);
  }
  return total;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(std::string_view name,
                                                   std::string_view help,
                                                   MetricKind kind) {
  if (!valid_metric_name(name)) bad_registration(name, "invalid metric name");
  const auto it = entries_.find(name);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      bad_registration(name, "already registered as a different kind");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.help = std::string(help);
  return entries_.emplace(std::string(name), std::move(entry)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help) {
  const LockGuard lock(mu_);
  Entry& e = entry_for(name, help, MetricKind::kCounter);
  if (!e.counter) e.counter.reset(new Counter());
  return *e.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  const LockGuard lock(mu_);
  Entry& e = entry_for(name, help, MetricKind::kGauge);
  if (!e.gauge) e.gauge.reset(new Gauge());
  return *e.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, std::string_view help,
                                      std::size_t sub_buckets, double unit_scale) {
  if (sub_buckets == 0 || sub_buckets > 64 || !std::has_single_bit(sub_buckets)) {
    bad_registration(name, "sub_buckets must be a power of two in [1, 64]");
  }
  if (!(unit_scale > 0.0)) {
    bad_registration(name, "unit_scale must be positive");
  }
  const LockGuard lock(mu_);
  Entry& e = entry_for(name, help, MetricKind::kHistogram);
  if (!e.histogram) {
    e.histogram.reset(new Histogram(sub_buckets, unit_scale));
  } else if (e.histogram->sub_buckets() != sub_buckets) {
    bad_registration(name, "already registered with different sub_buckets");
  } else if (e.histogram->unit_scale() != unit_scale) {
    bad_registration(name, "already registered with a different unit_scale");
  }
  return *e.histogram;
}

const MetricsRegistry::Entry* MetricsRegistry::find(std::string_view name,
                                                    MetricKind kind) const {
  const LockGuard lock(mu_);
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

const Counter* MetricsRegistry::find_counter(std::string_view name) const {
  const Entry* e = find(name, MetricKind::kCounter);
  return e ? e->counter.get() : nullptr;
}

const Gauge* MetricsRegistry::find_gauge(std::string_view name) const {
  const Entry* e = find(name, MetricKind::kGauge);
  return e ? e->gauge.get() : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const Entry* e = find(name, MetricKind::kHistogram);
  return e ? e->histogram.get() : nullptr;
}

std::string MetricsRegistry::prometheus() const {
  const LockGuard lock(mu_);
  std::string out;
  for (const auto& [name, entry] : entries_) {
    out += "# HELP " + name + " " + entry.help + "\n";
    out += "# TYPE " + name + " ";
    out += metric_kind_name(entry.kind);
    out += "\n";
    switch (entry.kind) {
      case MetricKind::kCounter:
        out += name + " " + std::to_string(entry.counter->value()) + "\n";
        break;
      case MetricKind::kGauge:
        out += name + " " + std::to_string(entry.gauge->value()) + "\n";
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        // Trim: emit up to the highest non-empty finite bucket (cumulative
        // counts stay valid under any le subset), then the mandatory +Inf.
        std::size_t last = 0;
        bool any = false;
        for (std::size_t i = 0; i + 1 < h.num_buckets(); ++i) {
          if (h.bucket_count(i) > 0) {
            last = i;
            any = true;
          }
        }
        std::uint64_t cumulative = 0;
        if (any) {
          for (std::size_t i = 0; i <= last; ++i) {
            cumulative += h.bucket_count(i);
            out += name + "_bucket{le=\"" +
                   format_double(h.upper_bound(i) * h.unit_scale()) + "\"} " +
                   std::to_string(cumulative) + "\n";
          }
        }
        const std::uint64_t total = h.count();
        out += name + "_bucket{le=\"+Inf\"} " + std::to_string(total) + "\n";
        // Scaled histograms (seconds families) export a scaled sum; the
        // unscaled ones keep the exact integer form.
        out += name + "_sum " +
               (h.unit_scale() == 1.0
                    ? std::to_string(h.sum())
                    : format_double(static_cast<double>(h.sum()) * h.unit_scale())) +
               "\n";
        out += name + "_count " + std::to_string(total) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::json() const {
  const LockGuard lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
    append_json_string(out, name);
    out += ": {\"kind\": \"";
    switch (entry.kind) {
      case MetricKind::kCounter:
        out += "counter\", \"value\": " + std::to_string(entry.counter->value());
        break;
      case MetricKind::kGauge:
        out += "gauge\", \"value\": " + std::to_string(entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += "histogram\", \"count\": " + std::to_string(h.count()) + ", \"sum\": " +
               (h.unit_scale() == 1.0
                    ? std::to_string(h.sum())
                    : format_double(static_cast<double>(h.sum()) * h.unit_scale())) +
               ", \"buckets\": [";
        std::size_t last = 0;
        bool any = false;
        for (std::size_t i = 0; i + 1 < h.num_buckets(); ++i) {
          if (h.bucket_count(i) > 0) {
            last = i;
            any = true;
          }
        }
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; any && i <= last; ++i) {
          cumulative += h.bucket_count(i);
          if (i > 0) out += ", ";
          out += "{\"le\": " + format_double(h.upper_bound(i) * h.unit_scale()) +
                 ", \"count\": " + std::to_string(cumulative) + "}";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "\n}\n";
  return out;
}

std::map<std::string, MetricSample> MetricsRegistry::snapshot() const {
  const LockGuard lock(mu_);
  std::map<std::string, MetricSample> out;
  for (const auto& [name, entry] : entries_) {
    MetricSample sample;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        sample.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        HistogramSnapshot& snap = sample.histogram;
        snap.sub_buckets = h.sub_buckets();
        snap.unit_scale = h.unit_scale();
        snap.sum = h.sum();
        std::size_t last = 0;
        bool any = false;
        for (std::size_t i = 0; i + 1 < h.num_buckets(); ++i) {
          if (h.bucket_count(i) > 0) {
            last = i;
            any = true;
          }
        }
        if (any) {
          snap.counts.resize(last + 1);
          for (std::size_t i = 0; i <= last; ++i) {
            snap.counts[i] = h.bucket_count(i);
            snap.count += snap.counts[i];
          }
        }
        snap.overflow = h.bucket_count(h.num_buckets() - 1);
        snap.count += snap.overflow;
        break;
      }
    }
    out.emplace(name, std::move(sample));
  }
  return out;
}

std::vector<std::string> MetricsRegistry::names() const {
  const LockGuard lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;
}

}  // namespace cbde::obs
