// Structured event log for rare-but-important pipeline events: class
// creation, base-file publication/rebase, anonymization completion,
// worker-pool saturation, decode/verify failures.
//
// Two consumers:
//   * an in-memory ring of the most recent events (tests, operational
//     snapshots — bounded, so long runs cannot grow without bound);
//   * an optional JSONL sink (one JSON object per line, append-only) opened
//     via the `obs-event-log` config key. Schema in docs/OBSERVABILITY.md.
//
// emit() is thread-safe (internally locked); events are rare by contract,
// so a plain mutex is the right cost.
#pragma once

#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace cbde::obs {

enum class EventKind {
  kClassCreated,
  kBasePublished,
  kGroupRebase,
  kBasicRebase,
  kAnonymizationComplete,
  kPoolSaturated,
  kDecodeFailure,
};

std::string_view event_kind_name(EventKind kind);

struct Event {
  EventKind kind = EventKind::kClassCreated;
  std::int64_t sim_time_us = -1;  ///< simulated time; -1 = outside sim time
  std::uint64_t class_id = 0;     ///< 0 = not class-scoped
  std::vector<std::pair<std::string, std::string>> fields;
};

class EventLog {
 public:
  /// Events the in-memory ring keeps; older ones are evicted.
  static constexpr std::size_t kRingCapacity = 1024;

  /// Open (append) the JSONL sink. Returns false if the file cannot be
  /// opened; the ring keeps working either way.
  bool open(const std::filesystem::path& path) EXCLUDES(mu_);

  void emit(Event event) EXCLUDES(mu_);

  /// Copy of the ring, oldest first.
  std::vector<Event> recent() const EXCLUDES(mu_);

  void flush() EXCLUDES(mu_);

  /// One event as a single JSONL line (no trailing newline).
  static std::string to_jsonl(const Event& event);

 private:
  mutable Mutex mu_;
  std::deque<Event> ring_ GUARDED_BY(mu_);
  std::ofstream sink_ GUARDED_BY(mu_);
};

}  // namespace cbde::obs
