// Discrete-event engine for the network simulation.
//
// A minimal but strict event queue: events fire in (time, insertion order),
// callbacks may schedule further events, and time never runs backwards.
// Everything is deterministic — no wall clock. EventQueue, FifoResource and
// BitPipe are single-threaded by design. Both §VI-C simulators run on this
// engine: the closed-loop capacity harness (server/load) and the uplink
// queueing network (core/event_pipeline).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "util/clock.hpp"
#include "util/contracts.hpp"

namespace cbde::netsim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedule `fn` at absolute time `at` (>= now).
  void schedule(util::SimTime at, Callback fn);

  /// Schedule `fn` after `delay` (>= 0).
  void schedule_in(util::SimTime delay, Callback fn) { schedule(now_ + delay, std::move(fn)); }

  /// Fire the earliest event; returns false if none remain.
  bool run_next();

  /// Run events until the queue drains or `limit` events have fired.
  /// Returns the number of events fired.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run all events with firing time <= `until` (events scheduled during
  /// the run are honored if they fall within the horizon).
  void run_until(util::SimTime until);

  util::SimTime now() const { return now_; }
  std::size_t pending() const { return heap_.size(); }

 private:
  struct Entry {
    util::SimTime at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  // Min-heap over (at, seq), owned directly as a vector so the earliest
  // entry can be *moved* out on pop (priority_queue::top() is const, which
  // forces a const_cast for move-only payloads — UB bait).
  std::vector<Entry> heap_;
  util::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
};

/// Single-server FIFO resource (a CPU, a disk): work is served one job at a
/// time in arrival order. busy_until-based, O(1) per job.
class FifoResource {
 public:
  /// A job arriving at `now` needing `service` time: returns its completion
  /// time (start = max(now, previous completion)).
  util::SimTime submit(util::SimTime now, util::SimTime service) {
    CBDE_EXPECT(service >= 0);
    const util::SimTime start = std::max(now, busy_until_);
    busy_until_ = start + service;
    busy_time_ += service;
    ++jobs_;
    return busy_until_;
  }

  util::SimTime busy_until() const { return busy_until_; }
  /// Total service time performed (for utilization = busy_time / horizon).
  util::SimTime busy_time() const { return busy_time_; }
  std::uint64_t jobs() const { return jobs_; }

 private:
  util::SimTime busy_until_ = 0;
  util::SimTime busy_time_ = 0;
  std::uint64_t jobs_ = 0;
};

/// A transmission link of fixed capacity: messages serialize through it in
/// FIFO order (bytes / capacity each), then propagate for `latency`.
class BitPipe {
 public:
  BitPipe(double bits_per_second, util::SimTime propagation)
      : bps_(bits_per_second), propagation_(propagation) {
    CBDE_EXPECT(bits_per_second > 0);
    CBDE_EXPECT(propagation >= 0);
  }

  /// A message of `bytes` entering at `now`: returns its arrival time at
  /// the far end.
  util::SimTime transmit(util::SimTime now, std::size_t bytes) {
    const auto tx =
        static_cast<util::SimTime>(static_cast<double>(bytes) * 8.0 / bps_ * 1e6);
    const util::SimTime done = pipe_.submit(now, tx);
    bytes_carried_ += bytes;
    return done + propagation_;
  }

  /// Fraction of `horizon` the link spent transmitting.
  double utilization(util::SimTime horizon) const {
    return horizon <= 0 ? 0.0
                        : static_cast<double>(pipe_.busy_time()) /
                              static_cast<double>(horizon);
  }

  std::uint64_t bytes_carried() const { return bytes_carried_; }

 private:
  double bps_;
  util::SimTime propagation_;
  FifoResource pipe_;
  std::uint64_t bytes_carried_ = 0;
};

}  // namespace cbde::netsim
