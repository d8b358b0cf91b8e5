// cbde::obs — the observability substrate (metrics registry + per-request
// trace spans + structured event log) behind the CBDE pipeline. One Obs
// instance is one telemetry domain: each DeltaServer owns one, and the rest
// of its serving stack (worker pool, proxy cache, core::Pipeline) registers
// into it through DeltaServer::obs().
//
// Sharing note: the server's registry collector reads that server's
// ledger, so an Obs lives exactly as long as the one server it describes;
// independent servers never share a registry.
//
// See docs/OBSERVABILITY.md for the metric catalog, span taxonomy and
// event-log schema.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "obs/event_log.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace_span.hpp"
#include "util/lock_wait.hpp"
#include "util/thread_annotations.hpp"

namespace cbde::obs {

struct ObsConfig {
  /// Fraction of requests that get a trace (0 = tracing off, 1 = every
  /// request). Deterministic 1-in-round(1/rate) sampling, first request
  /// always sampled, so short smoke runs still produce a trace.
  double sample_rate = 0.0;
  /// JSONL sink for the event log; empty = in-memory ring only (the ring
  /// keeps the most recent EventLog::kRingCapacity events).
  std::string event_log_path;
  /// Opt-in lock-wait profiling: when true, components attach timed
  /// acquisition cells (Obs::lock_wait_profile) to their contended mutexes
  /// and per-site `cbde_lock_wait_seconds_*` histograms populate. Off by
  /// default — the timed path costs a try_lock (and, contended, two clock
  /// reads) per acquisition.
  bool lock_profile = false;
};

class Obs {
 public:
  explicit Obs(ObsConfig config = {});

  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }
  EventLog& events() { return events_; }
  const EventLog& events() const { return events_; }
  const ObsConfig& config() const { return config_; }

  /// Sampling decision for one request: a fresh TraceContext when this
  /// request is sampled, nullptr otherwise (and always nullptr when
  /// tracing is off).
  std::shared_ptr<TraceContext> maybe_trace();

  /// Convenience event emission (counts into cbde_obs_events_emitted_total).
  void emit(EventKind kind, std::int64_t sim_time_us, std::uint64_t class_id,
            std::vector<std::pair<std::string, std::string>> fields = {});

  /// One lock-wait profiling cell per mutex *site* (the delta-server's
  /// mutex is one site, the pool queue mutex another). Registers `name` as
  /// a seconds-scaled histogram (observations are microseconds, exported
  /// bounds are seconds), wires the cell's observe callback at it, and
  /// returns the cell for
  /// Mutex::attach_wait_profile. Idempotent per name; the cell outlives
  /// every attached mutex because this Obs owns both. `name` must be a
  /// `cbde_lock_wait_seconds_<site>` literal at the call site — the lint
  /// one-registration-site rule tracks these like any other registration.
  util::LockWaitCell& lock_wait_profile(std::string_view name, std::string_view help)
      EXCLUDES(cells_mu_);

 private:
  ObsConfig config_;
  MetricsRegistry registry_;
  EventLog events_;
  mutable Mutex cells_mu_;
  /// Node-based map: cell addresses are stable for the Obs lifetime (the
  /// mutexes keep raw pointers into it).
  std::map<std::string, std::unique_ptr<util::LockWaitCell>, std::less<>> lock_cells_
      GUARDED_BY(cells_mu_);
  std::uint64_t sample_period_;  ///< 0 = never, N = every N-th request
  std::atomic<std::uint64_t> sample_seq_{0};
  std::atomic<std::uint64_t> next_trace_id_{1};
  Counter* traces_sampled_ = nullptr;
  Counter* events_emitted_ = nullptr;
};

}  // namespace cbde::obs
