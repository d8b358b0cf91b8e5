#include "obs/obs.hpp"

#include <cmath>

namespace cbde::obs {
namespace {

std::uint64_t period_from_rate(double rate) {
  if (!(rate > 0.0)) return 0;  // also rejects NaN
  if (rate >= 1.0) return 1;
  const double period = std::llround(1.0 / rate);
  return period < 1.0 ? 1 : static_cast<std::uint64_t>(period);
}

}  // namespace

Obs::Obs(ObsConfig config)
    : config_(std::move(config)),
      sample_period_(period_from_rate(config_.sample_rate)) {
  if (!config_.event_log_path.empty()) {
    events_.open(config_.event_log_path);
  }
  traces_sampled_ = &registry_.counter("cbde_obs_traces_sampled_total",
                                       "Requests that received a trace context.");
  events_emitted_ = &registry_.counter("cbde_obs_events_emitted_total",
                                       "Structured pipeline events emitted.");
}

std::shared_ptr<TraceContext> Obs::maybe_trace() {
  if (sample_period_ == 0) return nullptr;
  const std::uint64_t seq = sample_seq_.fetch_add(1, std::memory_order_relaxed);
  if (seq % sample_period_ != 0) return nullptr;
  traces_sampled_->inc();
  return std::make_shared<TraceContext>(
      next_trace_id_.fetch_add(1, std::memory_order_relaxed));
}

util::LockWaitCell& Obs::lock_wait_profile(std::string_view name,
                                           std::string_view help) {
  // Register (idempotently) outside cells_mu_ so the registry lock and the
  // cell-map lock never nest.
  Histogram& hist = registry_.histogram(name, help, config_.histogram_sub_buckets,
                                        /*unit_scale=*/1e-6);
  const LockGuard lock(cells_mu_);
  auto it = lock_cells_.find(name);
  if (it == lock_cells_.end()) {
    auto cell = std::make_unique<util::LockWaitCell>();
    cell->target = &hist;
    cell->observe = [](void* target, std::uint64_t wait_us) {
      static_cast<Histogram*>(target)->observe(wait_us);
    };
    it = lock_cells_.emplace(std::string(name), std::move(cell)).first;
  }
  return *it->second;
}

void Obs::emit(EventKind kind, std::int64_t sim_time_us, std::uint64_t class_id,
               std::vector<std::pair<std::string, std::string>> fields) {
  events_emitted_->inc();
  Event event;
  event.kind = kind;
  event.sim_time_us = sim_time_us;
  event.class_id = class_id;
  event.fields = std::move(fields);
  events_.emit(std::move(event));
}

}  // namespace cbde::obs
