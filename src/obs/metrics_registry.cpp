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

HistogramSnapshot snapshot_of(const Histogram& h) {
  HistogramSnapshot snap;
  snap.sub_buckets = h.sub_buckets();
  snap.unit_scale = h.unit_scale();
  snap.sum = h.sum();
  const std::size_t overflow = h.num_buckets() - 1;
  for (std::size_t i = 0; i < overflow; ++i) {
    if (const std::uint64_t n = h.bucket_count(i); n > 0) {
      snap.counts.resize(i + 1);
      snap.counts[i] = n;
      snap.count += n;
    }
  }
  snap.overflow = h.bucket_count(overflow);
  snap.count += snap.overflow;
  return snap;
}

std::string scalar_text(const MetricSample& sample) {
  return sample.kind == MetricKind::kCounter ? std::to_string(sample.counter)
                                             : std::to_string(sample.gauge);
}

/// Scaled histograms (seconds families) export a scaled sum; the unscaled
/// ones keep the exact integer form.
std::string sum_text(const HistogramSnapshot& h) {
  return h.unit_scale == 1.0
             ? std::to_string(h.sum)
             : format_double(static_cast<double>(h.sum) * h.unit_scale);
}

std::string le_text(const HistogramSnapshot& h, std::size_t i) {
  return format_double(Histogram::upper_bound_for(h.sub_buckets, i) * h.unit_scale);
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
    if (it->second.slot) bad_registration(name, "already registered as collected");
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

const Histogram* MetricsRegistry::find_histogram(std::string_view name) const {
  const Entry* e = find(name, MetricKind::kHistogram);
  return e ? e->histogram.get() : nullptr;
}

void MetricsRegistry::set_collector(Collector collector, Collector::Fill fill) {
  // Validate into a side map first, so a throw leaves the registry as it
  // was. Distinct slots below the declaration count leave no slot unfilled.
  std::map<std::string, Entry, std::less<>> added;
  std::vector<bool> taken(collector.declared.size());
  for (Collector::Declaration& d : collector.declared) {
    if (!valid_metric_name(d.name)) bad_registration(d.name, "invalid metric name");
    if (d.slot >= taken.size() || taken[d.slot]) bad_registration(d.name, "bad slot");
    taken[d.slot] = true;
    const auto [it, fresh] = added.try_emplace(d.name);
    if (!fresh) bad_registration(d.name, "declared twice");
    it->second.kind = d.kind;
    it->second.help = std::move(d.help);
    it->second.slot = d.slot;
  }
  const LockGuard lock(mu_);
  if (fill_) throw std::invalid_argument("obs: the registry already has a collector");
  for (const auto& [name, entry] : added) {
    if (entries_.contains(name)) bad_registration(name, "already registered");
  }
  entries_.merge(added);
  slots_ = taken.size();
  fill_ = std::move(fill);
}

std::map<std::string, MetricSample> MetricsRegistry::snapshot() const {
  std::map<std::string, MetricSample> out;
  std::vector<MetricSample*> collected;
  Collector::Fill fill;
  {
    const LockGuard lock(mu_);
    collected.resize(slots_);
    fill = fill_;
    for (const auto& [name, entry] : entries_) {
      MetricSample& sample = out.emplace_hint(out.end(), name, MetricSample{})->second;
      sample.kind = entry.kind;
      sample.help = entry.help;
      if (entry.slot) {
        collected[*entry.slot] = &sample;
        continue;
      }
      switch (entry.kind) {
        case MetricKind::kCounter: sample.counter = entry.counter->value(); break;
        case MetricKind::kGauge: sample.gauge = entry.gauge->value(); break;
        case MetricKind::kHistogram: sample.histogram = snapshot_of(*entry.histogram); break;
      }
    }
  }
  if (fill) {
    std::vector<std::uint64_t> values(collected.size(), 0);
    fill(values);
    for (std::size_t slot = 0; slot < collected.size(); ++slot) {
      MetricSample& sample = *collected[slot];
      if (sample.kind == MetricKind::kCounter) {
        sample.counter = values[slot];
      } else {
        sample.gauge = static_cast<std::int64_t>(values[slot]);
      }
    }
  }
  return out;
}

std::string MetricsRegistry::prometheus() const {
  std::string out;
  for (const auto& [name, sample] : snapshot()) {
    out += "# HELP " + name + " " + sample.help + "\n";
    out += "# TYPE " + name + " " + std::string(metric_kind_name(sample.kind)) + "\n";
    if (sample.kind != MetricKind::kHistogram) {
      out += name + " " + scalar_text(sample) + "\n";
      continue;
    }
    const HistogramSnapshot& h = sample.histogram;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += name + "_bucket{le=\"" + le_text(h, i) + "\"} " + std::to_string(cumulative) +
             "\n";
    }
    out += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += name + "_sum " + sum_text(h) + "\n";
    out += name + "_count " + std::to_string(h.count) + "\n";
  }
  return out;
}

std::string MetricsRegistry::json() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, sample] : snapshot()) {
    out += first ? "\n  " : ",\n  ";
    first = false;
    append_json_string(out, name);
    out += ": {\"kind\": \"" + std::string(metric_kind_name(sample.kind)) + "\", ";
    if (sample.kind != MetricKind::kHistogram) {
      out += "\"value\": " + scalar_text(sample) + "}";
      continue;
    }
    const HistogramSnapshot& h = sample.histogram;
    out += "\"count\": " + std::to_string(h.count) + ", \"sum\": " + sum_text(h) +
           ", \"buckets\": [";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += std::string(i > 0 ? ", " : "") + "{\"le\": " + le_text(h, i) +
             ", \"count\": " + std::to_string(cumulative) + "}";
    }
    out += "]}";
  }
  out += "\n}\n";
  return out;
}

}  // namespace cbde::obs
